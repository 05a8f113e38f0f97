// pio::fault unit + integration tests: timeline queries, injector
// determinism, retry backoff schedules, and the end-to-end behaviour of a
// faulted PFS (down OSTs, stragglers, MDS outages, fabric brownouts,
// burst-buffer stalls) with and without client-side resilience.
//
// piolint: allow-file(C2) — test bodies schedule against a stack-local
// engine/model and drain it in the same scope, so by-reference captures
// cannot outlive their frame; library code gets no such exemption.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/sim_driver.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "net/fabric.hpp"
#include "pfs/pfs.hpp"
#include "pfs/resilience.hpp"
#include "sim/engine.hpp"
#include "trace/server_stats.hpp"
#include "workload/kernels.hpp"

namespace pio {
namespace {

using namespace pio::literals;
using fault::ComponentId;
using fault::ComponentKind;
using fault::FaultPlan;
using fault::Timeline;

constexpr ComponentId kOst0{ComponentKind::kOst, 0};

SimTime ms(double v) { return SimTime::from_ms(v); }

// ------------------------------------------------------------------ timeline

TEST(FaultTimelineTest, EmptyTimelineReportsHealthy) {
  const Timeline timeline;
  EXPECT_TRUE(timeline.empty());
  EXPECT_FALSE(timeline.down(kOst0, SimTime::zero()));
  EXPECT_EQ(timeline.slowdown(kOst0, ms(5)), 1.0);
  EXPECT_EQ(timeline.scaled(kOst0, ms(5), ms(3)), ms(3));
}

TEST(FaultTimelineTest, DownIntervalsAreHalfOpenAndMerged) {
  FaultPlan plan;
  plan.ost_down(0, ms(10), ms(20)).ost_down(0, ms(15), ms(30)).ost_down(0, ms(50), ms(60));
  const Timeline timeline{plan.events};
  EXPECT_EQ(timeline.event_count(), 3u);
  EXPECT_FALSE(timeline.down(kOst0, ms(9)));
  EXPECT_TRUE(timeline.down(kOst0, ms(10)));   // closed at start
  EXPECT_TRUE(timeline.down(kOst0, ms(25)));   // inside the merged [10, 30)
  EXPECT_FALSE(timeline.down(kOst0, ms(30)));  // open at end
  EXPECT_EQ(timeline.down_until(kOst0, ms(12)), ms(30));  // merged end, not 20
  EXPECT_TRUE(timeline.down(kOst0, ms(55)));
  EXPECT_EQ(timeline.down_until(kOst0, ms(55)), ms(60));
  // Other components are untouched.
  EXPECT_FALSE(timeline.down({ComponentKind::kOst, 1}, ms(15)));
  EXPECT_FALSE(timeline.down({ComponentKind::kMds, 0}, ms(15)));
}

TEST(FaultTimelineTest, DownUntilThrowsWhenNotDown) {
  FaultPlan plan;
  plan.ost_down(0, ms(10), ms(20));
  const Timeline timeline{plan.events};
  EXPECT_THROW((void)timeline.down_until(kOst0, ms(5)), std::logic_error);
  EXPECT_THROW((void)timeline.down_until(kOst0, ms(20)), std::logic_error);
  EXPECT_THROW((void)timeline.down_until({ComponentKind::kOst, 7}, ms(15)), std::logic_error);
}

TEST(FaultTimelineTest, OverlappingSlowdownsMultiply) {
  FaultPlan plan;
  plan.ost_straggler(0, ms(0), ms(100), 2.0).ost_straggler(0, ms(50), ms(200), 3.0);
  const Timeline timeline{plan.events};
  EXPECT_EQ(timeline.slowdown(kOst0, ms(10)), 2.0);
  EXPECT_EQ(timeline.slowdown(kOst0, ms(60)), 6.0);   // overlap composes
  EXPECT_EQ(timeline.slowdown(kOst0, ms(150)), 3.0);
  EXPECT_EQ(timeline.slowdown(kOst0, ms(300)), 1.0);
  EXPECT_EQ(timeline.scaled(kOst0, ms(60), ms(2)), ms(12));
}

TEST(FaultTimelineTest, MalformedEventsThrow) {
  FaultPlan backwards;
  backwards.ost_down(0, ms(20), ms(10));
  EXPECT_THROW(Timeline{backwards.events}, std::invalid_argument);
  FaultPlan zero_factor;
  zero_factor.ost_straggler(0, ms(0), ms(10), 0.0);
  EXPECT_THROW(Timeline{zero_factor.events}, std::invalid_argument);
  FaultPlan bad_fabric;
  EXPECT_THROW(bad_fabric.fabric_brownout(ComponentKind::kOst, ms(0), ms(1), 2.0),
               std::invalid_argument);
}

TEST(FaultTimelineTest, HandlerDuringDownIntervalTripsInvariantF1) {
  FaultPlan plan;
  plan.ost_down(0, ms(10), ms(20));
  const Timeline timeline{plan.events};
  EXPECT_NO_THROW(timeline.check_handler_allowed(kOst0, ms(5)));
  EXPECT_NO_THROW(timeline.check_handler_allowed(kOst0, ms(20)));  // recovery edge is legal
  EXPECT_THROW(timeline.check_handler_allowed(kOst0, ms(15)), std::logic_error);
}

// ------------------------------------------------------------------ injector

fault::InjectorConfig busy_injector(std::uint32_t osts) {
  fault::InjectorConfig config;
  config.horizon = SimTime::from_sec(30.0);
  config.osts = osts;
  config.ost_crash_rate_hz = 0.5;
  config.ost_straggler_rate_hz = 0.5;
  config.storage_brownout_rate_hz = 0.2;
  config.mds_slowdown_rate_hz = 0.2;
  return config;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  const auto a = fault::inject(busy_injector(4), Rng{42, fault::kFaultRngStream});
  const auto b = fault::inject(busy_injector(4), Rng{42, fault::kFaultRngStream});
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].component, b[i].component);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].factor, b[i].factor);
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  const auto a = fault::inject(busy_injector(4), Rng{42, fault::kFaultRngStream});
  const auto b = fault::inject(busy_injector(4), Rng{43, fault::kFaultRngStream});
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  bool identical = a.size() == b.size();
  for (std::size_t i = 0; identical && i < a.size(); ++i) {
    identical = a[i].component == b[i].component && a[i].start == b[i].start;
  }
  EXPECT_FALSE(identical);
}

TEST(FaultInjectorTest, EventsRespectHorizonAndValidate) {
  const auto events = fault::inject(busy_injector(4), Rng{7, fault::kFaultRngStream});
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_GE(e.start, SimTime::zero());
    EXPECT_GT(e.end, e.start);
    EXPECT_LE(e.end, SimTime::from_sec(30.0));
  }
  // The whole batch must be Timeline-constructible.
  EXPECT_NO_THROW(Timeline{events});
}

TEST(FaultInjectorTest, ZeroRatesProduceNoEvents) {
  fault::InjectorConfig config;
  config.osts = 8;
  EXPECT_TRUE(fault::inject(config, Rng{42, fault::kFaultRngStream}).empty());
}

TEST(FaultInjectorTest, PerComponentSubstreamsAreIndependentOfPoolSize) {
  // OST 0's weather must not change when the pool grows: per-component
  // substreams, not one shared draw sequence.
  auto events_for_ost0 = [](std::uint32_t osts) {
    std::vector<fault::FaultEvent> out;
    for (const auto& e : fault::inject(busy_injector(osts), Rng{42, fault::kFaultRngStream})) {
      if (e.component == ComponentId{ComponentKind::kOst, 0}) out.push_back(e);
    }
    return out;
  };
  const auto small_pool = events_for_ost0(2);
  const auto big_pool = events_for_ost0(16);
  ASSERT_EQ(small_pool.size(), big_pool.size());
  for (std::size_t i = 0; i < small_pool.size(); ++i) {
    EXPECT_EQ(small_pool[i].start, big_pool[i].start);
    EXPECT_EQ(small_pool[i].end, big_pool[i].end);
    EXPECT_EQ(small_pool[i].factor, big_pool[i].factor);
  }
}

// ------------------------------------------------------------------- backoff

TEST(RetryBackoffTest, ExponentialScheduleWithCap) {
  pfs::RetryPolicy policy;
  policy.base_backoff = ms(1);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = ms(6);
  policy.jitter_fraction = 0.0;
  Rng rng{1, pfs::kRetryRngStream};
  EXPECT_EQ(pfs::backoff_delay(policy, 1, rng), ms(1));
  EXPECT_EQ(pfs::backoff_delay(policy, 2, rng), ms(2));
  EXPECT_EQ(pfs::backoff_delay(policy, 3, rng), ms(4));
  EXPECT_EQ(pfs::backoff_delay(policy, 4, rng), ms(6));  // capped
  EXPECT_EQ(pfs::backoff_delay(policy, 9, rng), ms(6));  // stays capped
}

TEST(RetryBackoffTest, JitterIsBoundedAndDeterministic) {
  pfs::RetryPolicy policy;
  policy.base_backoff = ms(10);
  policy.jitter_fraction = 0.25;
  Rng a{5, pfs::kRetryRngStream};
  Rng b{5, pfs::kRetryRngStream};
  for (int i = 0; i < 32; ++i) {
    const SimTime da = pfs::backoff_delay(policy, 1, a);
    const SimTime db = pfs::backoff_delay(policy, 1, b);
    EXPECT_EQ(da, db);  // same stream, same schedule
    EXPECT_GE(da, ms(7.5));
    EXPECT_LE(da, ms(12.5));
  }
}

// ---------------------------------------------------------------- OST faults

TEST(OstFaultTest, RequestDuringDownIsRejected) {
  sim::Engine engine;
  pfs::OstServer ost{engine, 0, pfs::make_ssd(pfs::SsdConfig{})};
  FaultPlan plan;
  plan.ost_down(0, ms(1), ms(5));
  const Timeline timeline{plan.events};
  ost.set_fault_timeline(&timeline);
  std::vector<obs::Span> spans;
  engine.set_span_sink([&](const obs::Span& s) { spans.push_back(s); });
  bool result = true;
  engine.schedule_at(ms(2), [&] {
    ost.submit(0, 1_MiB, true, [&](pfs::OstCompletion c) { result = c.ok(); });
  });
  engine.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(ost.stats().rejected_ops, 1u);
  EXPECT_EQ(ost.stats().write_ops, 0u);  // never reached the device
  EXPECT_EQ(ost.stats().bytes_written, Bytes::zero());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].ok);
  EXPECT_EQ(spans[0].end, ms(2));  // rejected at the door
}

TEST(OstFaultTest, InServiceOpInterruptedByCrashFailsAtRecovery) {
  sim::Engine engine;
  pfs::OstServer ost{engine, 0, pfs::make_ssd(pfs::SsdConfig{})};
  // 1 MiB SSD write takes ~520us; the crash at 200us catches it in service.
  FaultPlan plan;
  plan.ost_down(0, SimTime::from_us(200.0), ms(5));
  const Timeline timeline{plan.events};
  ost.set_fault_timeline(&timeline);
  bool ok = true;
  SimTime completed = SimTime::zero();
  ost.submit(0, 1_MiB, true, [&](pfs::OstCompletion c) {
    ok = c.ok();
    completed = engine.now();
  });
  engine.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(ost.stats().interrupted_ops, 1u);
  // Invariant F1: the failure surfaces exactly at recovery, never inside
  // the down interval.
  EXPECT_EQ(completed, ms(5));
}

TEST(OstFaultTest, StragglerSlowdownStretchesServiceTime) {
  auto run_write = [](double factor) {
    sim::Engine engine;
    pfs::OstServer ost{engine, 0, pfs::make_ssd(pfs::SsdConfig{})};
    FaultPlan plan;
    Timeline timeline;
    if (factor > 1.0) {
      plan.ost_straggler(0, SimTime::zero(), SimTime::from_sec(1.0), factor);
      timeline = Timeline{plan.events};
    }
    ost.set_fault_timeline(&timeline);
    SimTime completed = SimTime::zero();
    ost.submit(0, 4_MiB, true, [&](pfs::OstCompletion) { completed = engine.now(); });
    engine.run();
    return completed;
  };
  const SimTime healthy = run_write(1.0);
  const SimTime straggling = run_write(8.0);
  EXPECT_GT(healthy, SimTime::zero());
  // from_sec_ceil rounding makes exact 8x slightly conservative.
  EXPECT_GE(straggling, healthy * 7);
}

// ------------------------------------------------------- PFS data-path faults

pfs::PfsConfig tiny_pfs(std::uint32_t osts) {
  pfs::PfsConfig config;
  config.clients = 2;
  config.io_nodes = 1;
  config.osts = osts;
  config.disk_kind = pfs::DiskKind::kSsd;
  config.mds.default_layout = pfs::StripeLayout{Bytes::from_mib(1), osts, 0};
  return config;
}

pfs::MetaResult sync_meta(pfs::PfsModel& model, pfs::ClientId c, pfs::MetaOp op,
                          const std::string& path) {
  pfs::MetaResult out;
  model.meta(c, op, model.mds().intern(path), [&](pfs::MetaResult r) { out = std::move(r); });
  model.engine().run();
  return out;
}

pfs::IoResult sync_io(pfs::PfsModel& model, pfs::ClientId c, const std::string& path,
                      const pfs::StripeLayout& layout, std::uint64_t offset, Bytes size,
                      bool is_write) {
  pfs::IoResult out;
  model.io(c, model.mds().intern(path), layout, offset, size, is_write,
           [&](pfs::IoResult r) { out = r; });
  model.engine().run();
  return out;
}

TEST(PfsFaultTest, WriteToDownOstFailsWithoutRetries) {
  sim::Engine engine;
  auto config = tiny_pfs(1);
  config.faults.ost_down(0, SimTime::zero(), SimTime::from_sec(3600.0));
  pfs::PfsModel model{engine, config};
  const auto created = sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  ASSERT_TRUE(created.ok());
  const auto wrote = sync_io(model, 0, "/f", created.inode->layout, 0, 1_MiB, true);
  EXPECT_FALSE(wrote.ok);
  EXPECT_EQ(wrote.error, pfs::IoError::kOstDown);
  EXPECT_EQ(wrote.attempts, 1u);  // fail-fast default policy
  EXPECT_EQ(model.resilience_stats().failed_ops, 1u);
  EXPECT_EQ(model.resilience_stats().retries, 0u);
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(PfsFaultTest, FailoverRoutesAroundDownOst) {
  sim::Engine engine;
  auto config = tiny_pfs(2);
  // File lives entirely on OST 0, which is down for the whole run.
  config.mds.default_layout = pfs::StripeLayout{Bytes::from_mib(1), 1, 0};
  config.faults.ost_down(0, SimTime::zero(), SimTime::from_sec(3600.0));
  config.retry.failover = true;
  pfs::PfsModel model{engine, config};
  const auto created = sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  ASSERT_TRUE(created.ok());
  const auto wrote = sync_io(model, 0, "/f", created.inode->layout, 0, 2_MiB, true);
  EXPECT_TRUE(wrote.ok);
  EXPECT_GT(model.resilience_stats().failovers, 0u);
  EXPECT_EQ(model.ost(0).stats().bytes_written, Bytes::zero());
  EXPECT_EQ(model.ost(1).stats().bytes_written, 2_MiB);  // the substitute OST
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(PfsFaultTest, RetriesRecoverAfterOutage) {
  sim::Engine engine;
  auto config = tiny_pfs(1);
  config.faults.ost_down(0, SimTime::zero(), ms(10));
  config.retry.max_attempts = 6;
  config.retry.base_backoff = ms(4);
  config.retry.backoff_multiplier = 2.0;
  config.retry.jitter_fraction = 0.0;
  pfs::PfsModel model{engine, config};
  const auto created = sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  ASSERT_TRUE(created.ok());
  const auto wrote = sync_io(model, 0, "/f", created.inode->layout, 0, 256_KiB, true);
  EXPECT_TRUE(wrote.ok);
  EXPECT_GE(wrote.attempts, 2u);  // at least one attempt hit the outage
  EXPECT_GT(wrote.completed, ms(10));  // success only after recovery
  const auto& stats = model.resilience_stats();
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.giveups, 0u);
  EXPECT_EQ(stats.failed_ops, 0u);
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(PfsFaultTest, TimeoutAbandonsAttemptAndOrphansDrain) {
  sim::Engine engine;
  auto config = tiny_pfs(1);
  // Crash catches the (large) write in service; its deferred failure would
  // arrive at t=1s, far beyond the client's 5ms patience.
  config.mds.default_layout = pfs::StripeLayout{Bytes::from_mib(16), 1, 0};
  config.faults.ost_down(0, ms(1), SimTime::from_sec(1.0));
  config.retry.op_timeout = ms(5);
  config.retry.max_attempts = 2;
  config.retry.base_backoff = ms(1);
  config.retry.jitter_fraction = 0.0;
  pfs::PfsModel model{engine, config};
  const auto created = sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  ASSERT_TRUE(created.ok());
  const auto wrote = sync_io(model, 0, "/f", created.inode->layout, 0, 8_MiB, true);
  EXPECT_FALSE(wrote.ok);
  const auto& stats = model.resilience_stats();
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_EQ(stats.giveups, 1u);
  EXPECT_EQ(stats.failed_ops, 1u);
  // The engine has fully drained (sync_io ran it dry), so every abandoned
  // attempt's in-flight events must have drained as orphans — invariant F2.
  engine.assert_drained();
  model.assert_quiescent();
}

// ---------------------------------------------------------------- MDS faults

TEST(MdsFaultTest, RequestDuringDownReturnsUnavailable) {
  sim::Engine engine;
  pfs::MetadataServer mds{engine, pfs::MdsConfig{}};
  FaultPlan plan;
  plan.mds_down(SimTime::zero(), ms(10));
  const Timeline timeline{plan.events};
  mds.set_fault_timeline(&timeline);
  pfs::MetaResult result;
  mds.request(pfs::MetaOp::kCreate, mds.intern("/f"),
              [&](pfs::MetaResult r) { result = std::move(r); });
  engine.run();
  EXPECT_EQ(result.status, pfs::MetaStatus::kUnavailable);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(mds.find_inode(mds.intern("/f")), nullptr);  // mutation was not applied
  EXPECT_EQ(mds.stats().errors, 1u);
}

TEST(MdsFaultTest, SlowdownStretchesServiceCost) {
  sim::Engine engine;
  pfs::MetadataServer mds{engine, pfs::MdsConfig{}};
  FaultPlan plan;
  plan.mds_slowdown(SimTime::zero(), SimTime::from_sec(1.0), 10.0);
  const Timeline timeline{plan.events};
  mds.set_fault_timeline(&timeline);
  SimTime completed = SimTime::zero();
  mds.request(pfs::MetaOp::kStat, mds.intern("/"),
              [&](pfs::MetaResult) { completed = engine.now(); });
  engine.run();
  // stat_cost is 40us; the storm makes it 400us.
  EXPECT_EQ(completed, SimTime::from_us(400.0));
}

TEST(MdsFaultTest, InServiceRequestInterruptedByCrashDefersToRecovery) {
  sim::Engine engine;
  pfs::MetadataServer mds{engine, pfs::MdsConfig{}};
  // create_cost is 250us; the crash at 100us catches it mid-service.
  FaultPlan plan;
  plan.mds_down(SimTime::from_us(100.0), ms(50));
  const Timeline timeline{plan.events};
  mds.set_fault_timeline(&timeline);
  pfs::MetaResult result;
  SimTime completed = SimTime::zero();
  mds.request(pfs::MetaOp::kCreate, mds.intern("/f"), [&](pfs::MetaResult r) {
    result = std::move(r);
    completed = engine.now();
  });
  engine.run();
  EXPECT_EQ(result.status, pfs::MetaStatus::kUnavailable);
  EXPECT_EQ(completed, ms(50));              // failure surfaces at recovery (F1)
  EXPECT_EQ(mds.find_inode(mds.intern("/f")), nullptr);  // the create was lost, not applied
}

// --------------------------------------------------------------- net faults

TEST(FabricFaultTest, BrownoutInflatesTransferTime) {
  auto run_send = [](bool browned_out) {
    sim::Engine engine;
    net::FabricConfig config;
    net::Fabric fabric{engine, config, 2};
    FaultPlan plan;
    Timeline timeline;
    if (browned_out) {
      plan.fabric_brownout(ComponentKind::kStorageFabric, SimTime::zero(),
                           SimTime::from_sec(1.0), 4.0);
      timeline = Timeline{plan.events};
    }
    fabric.set_fault_timeline(&timeline, {ComponentKind::kStorageFabric, 0});
    SimTime delivered = SimTime::zero();
    std::uint64_t degraded = 0;
    fabric.send(0, 1, 4_MiB, [&] { delivered = engine.now(); });
    engine.run();
    degraded = fabric.stats().degraded_messages;
    EXPECT_EQ(fabric.stats().bytes, 4_MiB);  // stats record the true payload
    return std::pair{delivered, degraded};
  };
  const auto [healthy, healthy_degraded] = run_send(false);
  const auto [browned, browned_degraded] = run_send(true);
  EXPECT_EQ(healthy_degraded, 0u);
  EXPECT_EQ(browned_degraded, 1u);
  EXPECT_GT(browned, healthy * 3);  // ~4x wire volume through every stage
}

// ------------------------------------------------------------- burst buffer

TEST(BurstBufferFaultTest, StalledBufferForcesWriteThrough) {
  auto run_write = [](bool stalled) {
    sim::Engine engine;
    auto config = tiny_pfs(2);
    config.bb_placement = pfs::BbPlacement::kPerIoNode;
    if (stalled) config.faults.bb_stall(0, SimTime::zero(), SimTime::from_sec(3600.0));
    pfs::PfsModel model{engine, config};
    (void)sync_meta(model, 0, pfs::MetaOp::kCreate, "/ckpt");
    (void)sync_io(model, 0, "/ckpt", model.mds().config().default_layout, 0, 4_MiB, true);
    return std::pair{model.burst_buffers().at(0)->stats().absorbed,
                     model.burst_buffers().at(0)->stats().bypassed};
  };
  const auto [absorbed_ok, bypassed_ok] = run_write(false);
  EXPECT_EQ(absorbed_ok, 4_MiB);
  EXPECT_EQ(bypassed_ok, Bytes::zero());
  const auto [absorbed_stalled, bypassed_stalled] = run_write(true);
  EXPECT_EQ(absorbed_stalled, Bytes::zero());
  EXPECT_EQ(bypassed_stalled, 4_MiB);  // stall forces the write-through path
}

// ----------------------------------------------------- monitoring + campaign

TEST(FaultMonitoringTest, ServerStatsSeeFailedOpsAndResilienceEvents) {
  sim::Engine engine;
  auto config = tiny_pfs(2);
  config.mds.default_layout = pfs::StripeLayout{Bytes::from_mib(1), 1, 0};
  config.faults.ost_down(0, SimTime::zero(), SimTime::from_sec(3600.0));
  config.retry.max_attempts = 2;
  config.retry.jitter_fraction = 0.0;
  pfs::PfsModel model{engine, config};
  trace::ServerStatsCollector collector{ms(10)};
  collector.attach(engine);
  (void)sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  const auto wrote = sync_io(model, 0, "/f", model.mds().config().default_layout, 0, 1_MiB, true);
  EXPECT_FALSE(wrote.ok);  // no failover: both attempts hit the down OST
  std::uint64_t server_failed = 0;
  for (const auto& [ost, series] : collector.ost_series()) {
    for (const auto& [window, sample] : series) server_failed += sample.failed_ops;
  }
  EXPECT_GE(server_failed, 2u);  // one rejection per attempt
  std::uint64_t retries = 0, giveups = 0;
  for (const auto& [window, sample] : collector.resilience_series()) {
    retries += sample.count_of(pfs::ResilienceEventKind::kRetry);
    giveups += sample.count_of(pfs::ResilienceEventKind::kGiveUp);
  }
  EXPECT_EQ(retries, 1u);
  EXPECT_EQ(giveups, 1u);
}

TEST(FaultCampaignTest, DownOstFailsFailFastButRecoversWithResilience) {
  workload::IorConfig ior;
  ior.ranks = 2;
  ior.block_size = Bytes::from_mib(2);
  ior.transfer_size = Bytes::from_mib(1);
  const auto workload = workload::ior_like(ior);
  auto faulted = tiny_pfs(2);
  faulted.faults.ost_down(0, SimTime::zero(), SimTime::from_sec(3600.0));
  driver::SimRunConfig run_config;
  run_config.layout = pfs::StripeLayout{Bytes::from_mib(1), 2, 0};

  // Fail-fast policy: the down OST surfaces as failed ops, zero retries.
  {
    sim::Engine engine{5};
    pfs::PfsModel model{engine, faulted};
    driver::ExecutionDrivenSimulator sim{engine, model, run_config};
    const auto result = sim.run(*workload);
    engine.assert_drained();
    model.assert_quiescent();
    EXPECT_GT(result.failed_ops, 0u);
    EXPECT_EQ(result.retries, 0u);
    EXPECT_EQ(result.failovers, 0u);
  }

  // Resilient policy: failover routes around the dead OST; everything
  // completes, and the counters record the work it took.
  {
    auto resilient = faulted;
    resilient.retry.max_attempts = 4;
    resilient.retry.failover = true;
    resilient.retry.jitter_fraction = 0.0;
    sim::Engine engine{5};
    pfs::PfsModel model{engine, resilient};
    driver::ExecutionDrivenSimulator sim{engine, model, run_config};
    const auto result = sim.run(*workload);
    engine.assert_drained();
    model.assert_quiescent();
    EXPECT_EQ(result.failed_ops, 0u);
    EXPECT_GT(result.failovers, 0u);
  }
}

// Every stage keeps its in-flight state in pooled records (sim/records.hpp).
// A drained run must have released all of them, including the attempts a
// timeout abandoned (their orphans drain later) and the requests an MDS
// crash bounced or lost; assert_quiescent audits the pools.
TEST(FaultQuiescenceTest, DrainedFaultedRunLeavesEveryPoolEmpty) {
  workload::IorConfig ior;
  ior.ranks = 8;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  ior.read_phase = true;
  const auto workload = workload::ior_like(ior);
  auto config = tiny_pfs(2);
  config.faults.ost_down(0, ms(2), ms(40));
  // Short MDS crashes across the run: some requests bounce at the door,
  // some are lost mid-service and fail at recovery.
  for (int k = 1; k <= 9; ++k) config.faults.mds_down(ms(20.0 * k), ms(20.0 * k + 8.0));
  config.retry.op_timeout = ms(4);
  config.retry.max_attempts = 4;
  config.retry.base_backoff = ms(1);
  config.retry.jitter_fraction = 0.0;
  driver::SimRunConfig run_config;
  run_config.layout = pfs::StripeLayout{Bytes::from_mib(1), 2, 0};
  sim::Engine engine{9};
  pfs::PfsModel model{engine, config};
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  const auto result = sim.run(*workload);
  engine.assert_drained();
  EXPECT_GT(result.timeouts, 0u);
  EXPECT_GT(model.mds().stats().errors, 0u);
  EXPECT_EQ(model.compute_fabric().messages_in_flight(), 0u);
  EXPECT_EQ(model.storage_fabric().messages_in_flight(), 0u);
  EXPECT_EQ(model.mds().requests_in_flight(), 0u);
  for (std::uint32_t i = 0; i < model.ost_count(); ++i) {
    EXPECT_EQ(model.ost(i).ops_in_flight(), 0u);
  }
  model.assert_quiescent();
}

TEST(FaultQuiescenceTest, LiveRecordFailsTheAudit) {
  sim::Engine engine;
  pfs::PfsModel model{engine, tiny_pfs(1)};
  model.meta(0, pfs::MetaOp::kCreate, model.mds().intern("/f"), [](const pfs::MetaResult&) {});
  engine.run(SimTime::from_ns(1));  // the request is still on the wire
  EXPECT_GT(model.compute_fabric().messages_in_flight(), 0u);
  EXPECT_THROW(model.assert_quiescent(), std::logic_error);
  engine.run();
  model.assert_quiescent();
}

}  // namespace
}  // namespace pio
