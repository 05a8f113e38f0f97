// Durability & recovery layer tests: TokenMap/ledger bookkeeping, stripe
// replication fan-out, degraded reads, the R=1 acknowledged-data-loss hole
// (kDataLost + invariant F3), online OST rebuild under fault injection, and
// MDS journal/standby failover. Registered under the `durability` ctest
// label so CI runs the group in both the Release and sanitizer legs.
//
// piolint: allow-file(C2) — test bodies schedule against a stack-local
// engine/model and drain it in the same scope, so by-reference captures
// cannot outlive their frame; library code gets no such exemption.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "pfs/durability.hpp"
#include "pfs/mds.hpp"
#include "pfs/pfs.hpp"
#include "pfs/resilience.hpp"
#include "pfs/stripe.hpp"
#include "sim/engine.hpp"
#include "trace/server_stats.hpp"

namespace pio {
namespace {

using namespace pio::literals;
using fault::FaultPlan;
using pfs::DurabilityLedger;
using pfs::TokenMap;

SimTime ms(double v) { return SimTime::from_ms(v); }

// ----------------------------------------------------------------- TokenMap

TEST(TokenMapTest, AssignOverwriteAndSegments) {
  TokenMap map;
  EXPECT_TRUE(map.empty());
  map.assign(0, 100, 1);
  map.assign(40, 60, 2);  // punch a newer token into the middle
  const auto segs = map.segments(0, 100);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].lo, 0u);
  EXPECT_EQ(segs[0].hi, 40u);
  EXPECT_EQ(segs[0].token, 1u);
  EXPECT_EQ(segs[1].lo, 40u);
  EXPECT_EQ(segs[1].hi, 60u);
  EXPECT_EQ(segs[1].token, 2u);
  EXPECT_EQ(segs[2].lo, 60u);
  EXPECT_EQ(segs[2].hi, 100u);
  EXPECT_EQ(segs[2].token, 1u);
  // Clipping.
  const auto clipped = map.segments(50, 70);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped[0].lo, 50u);
  EXPECT_EQ(clipped[0].hi, 60u);
}

TEST(TokenMapTest, HoldsRequiresContiguousExactCover) {
  TokenMap map;
  map.assign(0, 50, 3);
  map.assign(60, 100, 3);  // hole at [50, 60)
  EXPECT_TRUE(map.holds(0, 50, 3));
  EXPECT_TRUE(map.holds(60, 100, 3));
  EXPECT_FALSE(map.holds(0, 100, 3));  // hole breaks contiguity
  EXPECT_FALSE(map.holds(0, 50, 4));   // wrong token
  map.assign(50, 60, 3);
  EXPECT_TRUE(map.holds(0, 100, 3));
}

TEST(TokenMapTest, CoalescesAdjacentEqualTokenRuns) {
  TokenMap map;
  map.assign(0, 10, 5);
  map.assign(10, 20, 5);
  map.assign(20, 30, 5);
  const auto segs = map.segments(0, 100);
  ASSERT_EQ(segs.size(), 1u);  // one coalesced run, not three
  EXPECT_EQ(segs[0].lo, 0u);
  EXPECT_EQ(segs[0].hi, 30u);
}

// ---------------------------------------------------------- DurabilityLedger

TEST(DurabilityLedgerTest, ReadOkTracksAckedVsStored) {
  DurabilityLedger ledger;
  const auto token = ledger.next_token();
  EXPECT_NE(token, 0u);
  // Nothing acknowledged: every replica trivially serves (holes never
  // disqualify).
  EXPECT_TRUE(ledger.read_ok(1, 0, 0, 100));
  ledger.ack(1, 0, 100, token);
  EXPECT_FALSE(ledger.read_ok(1, 0, 0, 100));  // acked but never stored
  ledger.apply(1, 0, 0, 100, token);
  EXPECT_TRUE(ledger.read_ok(1, 0, 0, 100));
  EXPECT_FALSE(ledger.read_ok(1, 1, 0, 100));  // the other replica missed it
  // A newer acknowledged write makes the old copy stale.
  const auto newer = ledger.next_token();
  ledger.ack(1, 0, 100, newer);
  EXPECT_FALSE(ledger.read_ok(1, 0, 0, 100));
}

TEST(DurabilityLedgerTest, MissedRangesAreOwedUntilCopied) {
  DurabilityLedger ledger;
  const auto token = ledger.next_token();
  ledger.ack(7, 0, 1000, token);
  ledger.apply(7, 0, 0, 1000, token);
  ledger.mark_missed(1, 7, 0, 1000);
  EXPECT_EQ(ledger.dirty_bytes(1), Bytes{1000});
  const auto owed = ledger.dirty_snapshot(1);
  ASSERT_EQ(owed.size(), 1u);
  EXPECT_EQ(owed[0].file, 7u);
  EXPECT_EQ(owed[0].lo, 0u);
  EXPECT_EQ(owed[0].hi, 1000u);
  ledger.copy(7, 0, 1, 0, 1000);
  EXPECT_EQ(ledger.dirty_bytes(1), Bytes::zero());
  EXPECT_TRUE(ledger.read_ok(7, 1, 0, 1000));
}

// --------------------------------------------------------------- validation

TEST(DurabilityValidationTest, StripeLayoutRejectsBadReplicaCounts) {
  pfs::StripeLayout zero{1_MiB, 1, 0, 0};
  EXPECT_THROW((void)pfs::decompose(zero, 4, 0, 1_MiB), std::invalid_argument);
  pfs::StripeLayout too_many{1_MiB, 1, 0, 5};
  EXPECT_THROW((void)pfs::decompose(too_many, 4, 0, 1_MiB), std::invalid_argument);
}

TEST(DurabilityValidationTest, ReplicatedDefaultLayoutRequiresTracking) {
  sim::Engine engine;
  pfs::PfsConfig config;
  config.mds.default_layout.replicas = 2;
  EXPECT_THROW(pfs::PfsModel(engine, config), std::invalid_argument);
}

TEST(DurabilityValidationTest, TrackingIsIncompatibleWithBurstBuffers) {
  sim::Engine engine;
  pfs::PfsConfig config;
  config.durability.track_contents = true;
  config.bb_placement = pfs::BbPlacement::kPerIoNode;
  EXPECT_THROW(pfs::PfsModel(engine, config), std::invalid_argument);
}

TEST(DurabilityValidationTest, IoRejectsReplicatedLayoutWithoutTracking) {
  sim::Engine engine;
  pfs::PfsConfig config;
  pfs::PfsModel model{engine, config};
  pfs::StripeLayout replicated{1_MiB, 1, 0, 2};
  EXPECT_THROW(
      model.io(0, model.mds().intern("/f"), replicated, 0, 1_MiB, true, [](pfs::IoResult) {}),
      std::invalid_argument);
}

// --------------------------------------------------- replicated PFS fixture

/// 2 clients / 1 ION / `osts` OSTs on SSDs, durability tracking on, every
/// file striped over one OST (home 0) with `replicas` copies.
pfs::PfsConfig durable_pfs(std::uint32_t osts, std::uint32_t replicas) {
  pfs::PfsConfig config;
  config.clients = 2;
  config.io_nodes = 1;
  config.osts = osts;
  config.disk_kind = pfs::DiskKind::kSsd;
  config.mds.default_layout = pfs::StripeLayout{1_MiB, 1, 0, replicas};
  config.durability.track_contents = true;
  config.durability.rebuild_jitter_fraction = 0.0;
  return config;
}

/// Schedule a create at `t` (layout comes from the MDS default).
void create_at(pfs::PfsModel& model, SimTime t, const std::string& path) {
  model.engine().schedule_at(t, [&model, path] {
    model.meta(0, pfs::MetaOp::kCreate, model.mds().intern(path), [](pfs::MetaResult r) {
      if (!r.ok()) throw std::runtime_error("test create failed");
    });
  });
}

/// Schedule an io() at `t`, recording the result.
void io_at(pfs::PfsModel& model, SimTime t, const std::string& path, std::uint64_t offset,
           Bytes size, bool is_write, pfs::IoResult& out) {
  model.engine().schedule_at(t, [&model, &out, path, offset, size, is_write] {
    const auto* inode = model.mds().find_inode(model.mds().intern(path));
    ASSERT_NE(inode, nullptr);
    model.io(0, model.mds().intern(path), inode->layout, offset, size, is_write,
             [&out](pfs::IoResult r) { out = r; });
  });
}

TEST(ReplicatedPfsTest, WriteFansOutToEveryReplica) {
  sim::Engine engine;
  pfs::PfsModel model{engine, durable_pfs(2, 2)};
  pfs::IoResult wrote;
  create_at(model, SimTime::zero(), "/f");
  io_at(model, ms(1), "/f", 0, 1_MiB, true, wrote);
  engine.run();
  EXPECT_TRUE(wrote.ok);
  EXPECT_EQ(model.ost(0).stats().bytes_written, 1_MiB);
  EXPECT_EQ(model.ost(1).stats().bytes_written, 1_MiB);
  const auto report = model.durability_report();
  EXPECT_EQ(report.acked, 1_MiB);
  EXPECT_EQ(report.lost, Bytes::zero());
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(ReplicatedPfsTest, DegradedReadMasksPrimaryOutage) {
  sim::Engine engine;
  auto config = durable_pfs(2, 2);
  // The primary (home) OST crashes after the write completes.
  config.faults.ost_down(0, ms(100), ms(400));
  pfs::PfsModel model{engine, config};
  pfs::IoResult wrote;
  pfs::IoResult read;
  create_at(model, SimTime::zero(), "/f");
  io_at(model, ms(1), "/f", 0, 1_MiB, true, wrote);
  io_at(model, ms(200), "/f", 0, 1_MiB, false, read);  // inside the outage
  engine.run();
  EXPECT_TRUE(wrote.ok);
  EXPECT_TRUE(read.ok);  // replica absorbed the fault
  const auto& stats = model.resilience_stats();
  EXPECT_GE(stats.degraded_reads, 1u);
  EXPECT_EQ(stats.failed_ops, 0u);
  EXPECT_EQ(stats.data_lost_ops, 0u);
  engine.assert_drained();
  model.assert_quiescent();
}

// The classic unreplicated durability hole: degraded-mode failover ships an
// acknowledged write to a substitute OST, the primary recovers (stale), and
// the read path — which only consults the replica set — cannot find the
// data. The op fails with kDataLost and invariant F3 trips.
TEST(ReplicatedPfsTest, UnreplicatedFailoverLosesAckedData) {
  sim::Engine engine;
  auto config = durable_pfs(2, 1);
  config.retry.failover = true;
  config.retry.max_attempts = 3;  // retries must NOT resurrect lost data
  config.faults.ost_down(0, SimTime::zero(), SimTime::from_sec(1.0));
  pfs::PfsModel model{engine, config};
  pfs::IoResult wrote;
  pfs::IoResult read;
  create_at(model, SimTime::zero(), "/f");
  io_at(model, ms(10), "/f", 0, 1_MiB, true, wrote);  // fails over to OST 1
  io_at(model, SimTime::from_sec(2.0), "/f", 0, 1_MiB, false, read);  // primary is back
  engine.run();
  EXPECT_TRUE(wrote.ok);  // acknowledged!
  EXPECT_GT(model.resilience_stats().failovers, 0u);
  EXPECT_FALSE(read.ok);
  EXPECT_EQ(read.error, pfs::IoError::kDataLost);
  EXPECT_EQ(read.attempts, 1u);  // kDataLost settles immediately, no retries
  EXPECT_EQ(model.resilience_stats().data_lost_ops, 1u);
  const auto report = model.durability_report();
  EXPECT_GT(report.lost.count(), 0u);
  EXPECT_GT(report.lost_ranges, 0u);
  engine.assert_drained();
  EXPECT_THROW(model.assert_quiescent(), std::logic_error);  // F3
}

// The replicated counterpart: a crash that takes out one replica is masked
// end to end — the write completes, the read-back verifies, rebuild re-copies
// the missed bytes onto the recovered OST, and F3 holds.
TEST(ReplicatedPfsTest, ReplicaMaskedCrashCompletesAndRebuilds) {
  sim::Engine engine;
  auto config = durable_pfs(2, 2);
  config.faults.ost_down(1, SimTime::zero(), SimTime::from_sec(2.0));
  config.faults.ost_down(0, SimTime::from_sec(4.0), SimTime::from_sec(6.0));
  pfs::PfsModel model{engine, config};
  pfs::IoResult wrote;
  pfs::IoResult read_during;
  pfs::IoResult read_after;
  create_at(model, SimTime::zero(), "/f");
  // Replica OST 1 is down: the write is acked with one live copy.
  io_at(model, ms(10), "/f", 0, 1_MiB, true, wrote);
  io_at(model, SimTime::from_sec(1.0), "/f", 0, 1_MiB, false, read_during);
  // After OST 1's rebuild, the *primary* crashes; this read can only succeed
  // if the resync actually made OST 1 current.
  io_at(model, SimTime::from_sec(5.0), "/f", 0, 1_MiB, false, read_after);
  engine.run();
  EXPECT_TRUE(wrote.ok);
  EXPECT_TRUE(read_during.ok);
  EXPECT_TRUE(read_after.ok);
  const auto& stats = model.resilience_stats();
  EXPECT_EQ(stats.rebuilds_started, 1u);
  EXPECT_EQ(stats.rebuilds_completed, 1u);
  EXPECT_EQ(stats.rebuilt_bytes, 1_MiB);
  EXPECT_GE(stats.degraded_reads, 1u);  // read_after came from OST 1
  EXPECT_EQ(stats.data_lost_ops, 0u);
  const auto status = model.rebuild_status(1);
  EXPECT_FALSE(status.active);
  EXPECT_EQ(status.total, 1_MiB);
  EXPECT_EQ(status.done, 1_MiB);
  const auto report = model.durability_report();
  EXPECT_EQ(report.acked, 1_MiB);
  EXPECT_EQ(report.lost, Bytes::zero());
  engine.assert_drained();
  model.assert_quiescent();  // F3 holds
}

TEST(RebuildTest, StatusReportsProgressAndEtaMidRebuild) {
  sim::Engine engine;
  auto config = durable_pfs(2, 2);
  config.faults.ost_down(1, SimTime::zero(), SimTime::from_sec(2.0));
  config.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(64.0);
  pfs::PfsModel model{engine, config};
  pfs::IoResult wrote;
  create_at(model, SimTime::zero(), "/f");
  io_at(model, ms(10), "/f", 0, 8_MiB, true, wrote);
  // Stop the clock shortly after the rebuild began: 8 MiB at 64 MiB/s takes
  // ~125 ms, so at +20 ms the resync must still be in flight.
  engine.run(SimTime::from_sec(2.0) + ms(20));
  const auto mid = model.rebuild_status(1);
  EXPECT_TRUE(mid.active);
  EXPECT_EQ(mid.total, 8_MiB);
  EXPECT_LT(mid.done.count(), mid.total.count());
  EXPECT_GT(mid.eta, SimTime::zero());
  engine.run();
  const auto final_status = model.rebuild_status(1);
  EXPECT_FALSE(final_status.active);
  EXPECT_EQ(final_status.done, 8_MiB);
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(RebuildTest, BandwidthCapPacesTheResync) {
  // Same crash schedule under two rebuild caps: the slower cap must take
  // strictly longer between kRebuildStart and kRebuildDone.
  auto rebuild_duration = [](double cap_mib_per_sec) {
    sim::Engine engine;
    auto config = durable_pfs(2, 2);
    config.faults.ost_down(1, SimTime::zero(), SimTime::from_sec(2.0));
    config.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(cap_mib_per_sec);
    pfs::PfsModel model{engine, config};
    SimTime started = SimTime::zero();
    SimTime finished = SimTime::zero();
    engine.set_span_sink([&](const obs::Span& s) {
      if (s.layer != obs::Layer::kClient) return;
      const auto kind = static_cast<pfs::ResilienceEventKind>(s.kind);
      if (kind == pfs::ResilienceEventKind::kRebuildStart) started = s.end;
      if (kind == pfs::ResilienceEventKind::kRebuildDone) finished = s.end;
    });
    pfs::IoResult wrote;
    create_at(model, SimTime::zero(), "/f");
    io_at(model, ms(10), "/f", 0, 8_MiB, true, wrote);
    engine.run();
    EXPECT_TRUE(wrote.ok);
    EXPECT_GT(finished, started);
    model.assert_quiescent();
    return finished - started;
  };
  const SimTime slow = rebuild_duration(64.0);
  const SimTime fast = rebuild_duration(1024.0);
  EXPECT_GT(slow, fast);
  // The slow resync is dominated by pacing: 8 MiB / 64 MiB/s = 125 ms.
  EXPECT_GE(slow, ms(100));
}

TEST(RebuildTest, RecoveryWithNothingOwedStartsNoRebuild) {
  sim::Engine engine;
  auto config = durable_pfs(2, 2);
  // The outage ends before any write happens: nothing to resync.
  config.faults.ost_down(1, SimTime::zero(), ms(5));
  pfs::PfsModel model{engine, config};
  pfs::IoResult wrote;
  create_at(model, ms(10), "/f");
  io_at(model, ms(20), "/f", 0, 1_MiB, true, wrote);
  engine.run();
  EXPECT_TRUE(wrote.ok);
  EXPECT_EQ(model.resilience_stats().rebuilds_started, 0u);
  EXPECT_FALSE(model.rebuild_status(1).active);
  engine.assert_drained();
  model.assert_quiescent();
}

// ------------------------------------------------------- MDS standby failover

TEST(MdsStandbyTest, StandbyBoundsTheOutageToDetectionPlusReplay) {
  sim::Engine engine;
  pfs::MdsConfig config;
  config.standby_failover = true;
  config.failover_detection = ms(5);
  config.replay_per_entry = SimTime::from_us(20.0);
  pfs::MetadataServer mds{engine, config};
  FaultPlan plan;
  plan.mds_down(ms(100), SimTime::from_sec(10.0));  // 9.9 s primary outage
  const fault::Timeline timeline{plan.events};
  mds.set_fault_timeline(&timeline);
  // Build up a journal before the crash.
  for (int i = 0; i < 10; ++i) {
    mds.request(pfs::MetaOp::kCreate, mds.intern("/f" + std::to_string(i)), [](pfs::MetaResult) {});
  }
  engine.run();
  EXPECT_EQ(mds.journal_entries(), 10u);
  // A request that arrives after the crash but before the standby is ready
  // stalls for the takeover, then succeeds — it does NOT wait 9.9 s for the
  // primary.
  pfs::MetaResult result;
  SimTime completed = SimTime::zero();
  engine.schedule_at(ms(101), [&] {
    mds.request(pfs::MetaOp::kStat, mds.intern("/f0"), [&](pfs::MetaResult r) {
      result = std::move(r);
      completed = engine.now();
    });
  });
  engine.run();
  EXPECT_TRUE(result.ok());
  const SimTime ready = ms(100) + ms(5) + SimTime::from_us(20.0) * 10;
  EXPECT_GE(completed, ready);
  EXPECT_LT(completed, SimTime::from_sec(1.0));  // bounded stall, not an outage
  EXPECT_EQ(mds.stats().failover_stalls, 1u);
  EXPECT_EQ(mds.stats().standby_takeovers, 1u);
  EXPECT_EQ(mds.standby_ready(ms(200)), ready);
}

TEST(MdsStandbyTest, ReplayCostGrowsWithJournalSize) {
  auto ready_after = [](int creates) {
    sim::Engine engine;
    pfs::MdsConfig config;
    config.standby_failover = true;
    config.replay_per_entry = SimTime::from_us(50.0);
    pfs::MetadataServer mds{engine, config};
    FaultPlan plan;
    plan.mds_down(SimTime::from_sec(1.0), SimTime::from_sec(100.0));
    const fault::Timeline timeline{plan.events};
    mds.set_fault_timeline(&timeline);
    for (int i = 0; i < creates; ++i) {
      mds.request(pfs::MetaOp::kCreate, mds.intern("/f" + std::to_string(i)),
                  [](pfs::MetaResult) {});
    }
    engine.run();
    return mds.standby_ready(SimTime::from_sec(2.0));
  };
  EXPECT_GT(ready_after(100), ready_after(5));
}

TEST(MdsStandbyTest, InterruptedMutationIsReplayedNotLost) {
  sim::Engine engine;
  pfs::MdsConfig config;
  config.standby_failover = true;
  config.failover_detection = ms(5);
  pfs::MetadataServer mds{engine, config};
  // create_cost is 250 us: a crash at 100 us catches the op in service.
  FaultPlan plan;
  plan.mds_down(SimTime::from_us(100.0), SimTime::from_sec(50.0));
  const fault::Timeline timeline{plan.events};
  mds.set_fault_timeline(&timeline);
  pfs::MetaResult result;
  SimTime completed = SimTime::zero();
  mds.request(pfs::MetaOp::kCreate, mds.intern("/f"), [&](pfs::MetaResult r) {
    result = std::move(r);
    completed = engine.now();
  });
  engine.run();
  // Without a standby this op fails with kUnavailable at recovery (see
  // MdsFaultTest); with one, the RPC is replayed and succeeds at takeover.
  EXPECT_TRUE(result.ok());
  EXPECT_NE(mds.find_inode(mds.intern("/f")), nullptr);
  EXPECT_GE(completed, SimTime::from_us(100.0) + ms(5));
  EXPECT_LT(completed, SimTime::from_sec(1.0));
  EXPECT_EQ(mds.stats().failover_stalls, 1u);
}

TEST(MdsStandbyTest, FastPrimaryRecoveryClampsTheReplayStall) {
  sim::Engine engine;
  pfs::MdsConfig config;
  config.standby_failover = true;
  config.failover_detection = ms(50);  // slow standby...
  pfs::MetadataServer mds{engine, config};
  FaultPlan plan;
  plan.mds_down(SimTime::zero(), ms(10));  // ...but the primary is back in 10 ms
  const fault::Timeline timeline{plan.events};
  mds.set_fault_timeline(&timeline);
  EXPECT_EQ(mds.standby_ready(ms(1)), ms(10));  // clamped to recovery
}

// --------------------------------------------------------------- monitoring

TEST(DurabilityMonitoringTest, CollectorBinsDegradedReadsAndRebuilds) {
  sim::Engine engine;
  auto config = durable_pfs(2, 2);
  config.faults.ost_down(1, SimTime::zero(), SimTime::from_sec(2.0));
  config.faults.ost_down(0, SimTime::from_sec(4.0), SimTime::from_sec(6.0));
  pfs::PfsModel model{engine, config};
  trace::ServerStatsCollector collector{ms(100)};
  collector.attach(engine);
  pfs::IoResult wrote;
  pfs::IoResult read;
  create_at(model, SimTime::zero(), "/f");
  io_at(model, ms(10), "/f", 0, 1_MiB, true, wrote);
  io_at(model, SimTime::from_sec(5.0), "/f", 0, 1_MiB, false, read);
  engine.run();
  EXPECT_TRUE(read.ok);
  std::uint64_t degraded = 0;
  for (const auto& [window, sample] : collector.resilience_series()) {
    degraded += sample.count_of(pfs::ResilienceEventKind::kDegradedRead);
  }
  EXPECT_GE(degraded, 1u);
  ASSERT_TRUE(collector.rebuild_series().contains(1));
  std::uint64_t started = 0, completed = 0;
  Bytes rebuilt = Bytes::zero();
  for (const auto& [window, sample] : collector.rebuild_series().at(1)) {
    started += sample.count_of(pfs::ResilienceEventKind::kRebuildStart);
    completed += sample.count_of(pfs::ResilienceEventKind::kRebuildDone);
    rebuilt += sample.bytes_of(pfs::ResilienceEventKind::kRebuildDone);
  }
  EXPECT_EQ(started, 1u);
  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(rebuilt, 1_MiB);
}

}  // namespace
}  // namespace pio
