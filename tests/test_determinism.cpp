// Determinism regression tests: the engine's contract (src/sim/engine.hpp)
// is that two runs with equal inputs produce byte-identical outputs. These
// tests hash the full ordered event/trace stream of same-seed campaigns with
// FNV-1a and require identical digests — the property every replay-fidelity
// and extrapolation result in the paper rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "common/fnv.hpp"
#include "driver/sim_driver.hpp"
#include "eval/campaign.hpp"
#include "fault/injector.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"

namespace pio {
namespace {

std::uint64_t hash_trace(const trace::Trace& trace) {
  Fnv64 h;
  for (const auto& e : trace.events()) {
    h.mix(static_cast<std::uint64_t>(e.layer));
    h.mix(static_cast<std::uint64_t>(e.op));
    h.mix(static_cast<std::uint64_t>(e.rank));
    h.mix(e.path);
    h.mix(e.offset);
    h.mix(e.size);
    h.mix(static_cast<std::uint64_t>(e.start.ns()));
    h.mix(static_cast<std::uint64_t>(e.end.ns()));
    h.mix(e.ok ? 1u : 0u);
  }
  return h.digest();
}

/// One traced run: its trace, its result digest and its event count.
Fnv64 fold_run(const trace::Tracer& tracer, const driver::SimRunResult& result,
               const sim::Engine& engine) {
  Fnv64 h;
  h.mix(hash_trace(tracer.snapshot()));
  h.mix(driver::digest(result));
  h.mix(engine.events_executed());
  return h;
}

pfs::PfsConfig small_pfs() {
  pfs::PfsConfig config;
  config.clients = 8;
  config.io_nodes = 2;
  config.osts = 4;
  config.disk_kind = pfs::DiskKind::kSsd;
  return config;
}

/// One full simulated campaign: a shuffled DLIO epoch (exercises Rng-driven
/// sample order) traced end to end. Returns the trace digest.
std::uint64_t run_campaign(std::uint64_t engine_seed, std::uint64_t workload_seed) {
  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, small_pfs()};
  driver::ExecutionDrivenSimulator sim{engine, model};
  workload::DlioConfig config;
  config.ranks = 4;
  config.samples = 512;
  config.samples_per_file = 128;
  config.batch_size = 16;
  config.shuffle = true;
  config.seed = workload_seed;
  trace::Tracer tracer;
  const auto result = sim.run(*workload::dlio_like(config), &tracer);
  engine.assert_drained();
  return fold_run(tracer, result, engine).digest();
}

TEST(DeterminismRegression, SameSeedCampaignsHashIdentical) {
  const std::uint64_t first = run_campaign(7, 42);
  const std::uint64_t second = run_campaign(7, 42);
  EXPECT_EQ(first, second) << "same-seed campaign diverged: determinism contract broken";
}

TEST(DeterminismRegression, DifferentSeedsDiverge) {
  // Not a hard guarantee (hashes can collide) but with a shuffled workload a
  // seed change that *doesn't* move the trace means dead Rng plumbing.
  EXPECT_NE(run_campaign(7, 42), run_campaign(7, 43));
}

TEST(DeterminismRegression, EngineEventOrderIsReproducible) {
  auto run_engine = [](std::uint64_t seed) {
    sim::Engine engine{seed};
    Rng jitter = engine.rng_stream(1);
    Fnv64 h;
    // A self-rescheduling cascade with random delays plus same-time events:
    // ties must fire in insertion order, draws must replay exactly.
    for (int i = 0; i < 8; ++i) {
      // piolint: allow(C2) — engine is drained by run() in this same scope.
      engine.schedule_at(SimTime::from_ns(100), [&h, i] { h.mix(static_cast<std::uint64_t>(i)); });
    }
    std::function<void()> cascade = [&] {
      h.mix(static_cast<std::uint64_t>(engine.now().ns()));
      if (engine.events_executed() < 500) {
        engine.schedule_after(SimTime::from_ns(jitter.uniform_int(0, 1000)), cascade);
      }
    };
    engine.schedule_after(SimTime::zero(), cascade);
    engine.run();
    engine.assert_drained();
    h.mix(engine.events_executed());
    return h.digest();
  };
  EXPECT_EQ(run_engine(99), run_engine(99));
}

/// A faulted, resilient campaign: scripted OST outage + straggler on top of
/// an injector-generated schedule, retries with jittered backoff, timeouts
/// and failover all active. Every one of those draws from engine-owned Rng
/// streams, so the digest must replay exactly for equal seeds.
std::uint64_t run_fault_campaign(std::uint64_t engine_seed) {
  auto config = small_pfs();
  config.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0))
      .ost_straggler(2, SimTime::from_ms(1.0), SimTime::from_ms(30.0), 5.0);
  // Rates are high enough that several stochastic events land inside the
  // run's ~tens-of-ms window — a seed change must visibly move the trace.
  fault::InjectorConfig injector;
  injector.horizon = SimTime::from_ms(100.0);
  injector.ost_crash_rate_hz = 60.0;
  injector.ost_outage_mean = SimTime::from_ms(4.0);
  injector.ost_straggler_rate_hz = 60.0;
  injector.ost_straggler_mean = SimTime::from_ms(10.0);
  injector.storage_brownout_rate_hz = 30.0;
  injector.storage_brownout_mean = SimTime::from_ms(5.0);
  injector.mds_slowdown_rate_hz = 30.0;
  injector.mds_slowdown_mean = SimTime::from_ms(5.0);
  config.fault_injector = injector;
  config.retry.max_attempts = 3;
  config.retry.op_timeout = SimTime::from_ms(40.0);
  config.retry.failover = true;

  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, config};
  driver::ExecutionDrivenSimulator sim{engine, model};
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  trace::Tracer tracer;
  const auto result = sim.run(*workload::ior_like(ior), &tracer);
  engine.assert_drained();
  model.assert_quiescent();
  return fold_run(tracer, result, engine).digest();
}

/// An overload campaign: the fault weather of run_fault_campaign with the
/// whole overload-control stack armed — CoDel shedding on bounded queues,
/// token-bucket retry budget, per-OST breakers whose open-window jitter
/// draws from kBreakerRngStream, adaptive timeouts, end-to-end deadlines.
/// The digest folds in every overload counter and the server-side
/// rejected/shed totals, so a breaker or shed decision drawing outside the
/// engine's streams diverges immediately on a same-seed pair.
std::uint64_t run_overload_campaign(std::uint64_t engine_seed) {
  auto config = small_pfs();
  fault::InjectorConfig injector;
  injector.horizon = SimTime::from_ms(100.0);
  injector.ost_crash_rate_hz = 60.0;
  injector.ost_outage_mean = SimTime::from_ms(4.0);
  injector.ost_straggler_rate_hz = 60.0;
  injector.ost_straggler_mean = SimTime::from_ms(10.0);
  config.fault_injector = injector;
  config.admission.policy = pfs::AdmissionPolicy::kCodelShed;
  config.admission.shed_target = SimTime::from_ms(2.0);
  config.retry.max_attempts = 4;
  config.retry.adaptive_timeout = true;
  config.retry.initial_timeout = SimTime::from_ms(20.0);
  config.retry.op_deadline = SimTime::from_ms(120.0);
  config.retry.retry_budget = true;
  config.retry.budget_ratio = 0.5;
  config.retry.breaker = true;
  config.retry.breaker_threshold = 3;
  config.retry.breaker_open_base = SimTime::from_ms(10.0);

  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, config};
  driver::ExecutionDrivenSimulator sim{engine, model};
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  trace::Tracer tracer;
  const auto result = sim.run(*workload::ior_like(ior), &tracer);
  engine.assert_drained();
  model.assert_quiescent();
  Fnv64 h = fold_run(tracer, result, engine);
  h.mix(model.resilience_stats().budget_spent);
  h.mix(model.resilience_stats().breaker_probes);
  return h.digest();
}

TEST(DeterminismRegression, SameSeedOverloadCampaignsHashIdentical) {
  const std::uint64_t first = run_overload_campaign(31);
  const std::uint64_t second = run_overload_campaign(31);
  EXPECT_EQ(first, second) << "same-seed overload campaign diverged: a shed, "
                              "budget or breaker decision draws outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedOverloadCampaignsDiverge) {
  EXPECT_NE(run_overload_campaign(31), run_overload_campaign(32));
}

/// A durability campaign: replicated layout, tracked contents, OST crashes
/// that force degraded reads, and an online rebuild whose pacing jitter
/// draws from the kRebuildRngStream engine substream. The digest covers the
/// trace, the durability counters, and the rebuilt byte total, so a resync
/// planner drawing from wall-clock state (piolint D1) shows up immediately.
std::uint64_t run_durability_campaign(std::uint64_t engine_seed) {
  auto config = small_pfs();
  config.durability.track_contents = true;
  config.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(128.0);
  config.mds.default_layout.replicas = 2;
  config.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0))
      .ost_down(0, SimTime::from_ms(20.0), SimTime::from_ms(26.0));
  config.retry.max_attempts = 2;
  config.retry.failover = true;

  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, config};
  // Resilience/durability events carry the jitter-paced rebuild timestamps,
  // so the digest is sensitive to the resync planner even when the rebuild
  // never contends with foreground traffic.
  Fnv64 h;
  engine.set_span_sink([&h](const obs::Span& s) {
    if (s.layer != obs::Layer::kClient) return;
    h.mix(static_cast<std::uint64_t>(s.kind));
    h.mix(static_cast<std::uint64_t>(s.end.ns()));
    h.mix(static_cast<std::uint64_t>(s.component));
    h.mix(s.bytes.count());
  });
  driver::SimRunConfig run_config;
  run_config.layout.replicas = 2;  // the driver's create layout wins over the MDS default
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  trace::Tracer tracer;
  const auto result = sim.run(*workload::ior_like(ior), &tracer);
  engine.run();  // drain constructor-scheduled rebuild passes past the workload
  engine.assert_drained();
  model.assert_quiescent();
  h.mix(hash_trace(tracer.snapshot()));
  h.mix(driver::digest(result));
  h.mix(model.resilience_stats().degraded_reads);
  h.mix(model.resilience_stats().rebuilds_completed);
  h.mix(model.resilience_stats().rebuilt_bytes.count());
  h.mix(model.resilience_stats().data_lost_ops);
  h.mix(engine.events_executed());
  return h.digest();
}

TEST(DeterminismRegression, SameSeedDurabilityCampaignsHashIdentical) {
  const std::uint64_t first = run_durability_campaign(21);
  const std::uint64_t second = run_durability_campaign(21);
  EXPECT_EQ(first, second) << "same-seed durability campaign diverged: rebuild "
                              "pacing is drawing outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedDurabilityCampaignsDiverge) {
  EXPECT_NE(run_durability_campaign(21), run_durability_campaign(22));
}

/// A membership-churn campaign: epoch-versioned cluster map with rendezvous
/// placement, a scripted drain, and an OST crash detected through jittered
/// heartbeats (kHeartbeatRngStream) whose migration resync paces on
/// kDrainRngStream. The digest covers the trace, every membership counter,
/// and the final epoch, so a detector or migration planner drawing outside
/// engine streams diverges immediately (extends the C-12 oracle).
std::uint64_t run_membership_campaign(std::uint64_t engine_seed) {
  auto config = small_pfs();
  config.durability.track_contents = true;
  config.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(128.0);
  config.mds.default_layout.replicas = 2;
  config.cluster.enabled = true;
  config.cluster.placement = pfs::PlacementMode::kRendezvousHash;
  config.cluster.heartbeat_interval = SimTime::from_ms(2.0);
  config.cluster.heartbeat_grace = 2;
  config.cluster.horizon = SimTime::from_ms(80.0);
  config.cluster.drain(3, SimTime::from_ms(10.0));
  config.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0));
  config.retry.max_attempts = 4;
  config.retry.base_backoff = SimTime::from_ms(1.0);

  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, config};
  // Detection, stale-map and migration events carry heartbeat-jittered
  // timestamps; mixing them makes the digest sensitive to the whole
  // membership machinery, not just the foreground traffic.
  Fnv64 h;
  engine.set_span_sink([&h](const obs::Span& s) {
    if (s.layer != obs::Layer::kClient) return;
    h.mix(static_cast<std::uint64_t>(s.kind));
    h.mix(static_cast<std::uint64_t>(s.end.ns()));
    h.mix(static_cast<std::uint64_t>(s.component));
    h.mix(s.bytes.count());
  });
  driver::SimRunConfig run_config;
  run_config.layout.replicas = 2;  // the driver's create layout wins over the MDS default
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  trace::Tracer tracer;
  const auto result = sim.run(*workload::ior_like(ior), &tracer);
  engine.run();  // drain migration resync passes past the workload
  engine.assert_drained();
  model.assert_quiescent();
  h.mix(hash_trace(tracer.snapshot()));
  h.mix(driver::digest(result));
  h.mix(model.resilience_stats().stale_map_retries);
  h.mix(model.resilience_stats().map_refreshes);
  h.mix(model.resilience_stats().down_detections);
  h.mix(model.resilience_stats().up_detections);
  h.mix(model.resilience_stats().migration_marked_bytes.count());
  h.mix(model.cluster_map().epoch());
  h.mix(engine.events_executed());
  return h.digest();
}

TEST(DeterminismRegression, SameSeedMembershipCampaignsHashIdentical) {
  const std::uint64_t first = run_membership_campaign(41);
  const std::uint64_t second = run_membership_campaign(41);
  EXPECT_EQ(first, second) << "same-seed membership campaign diverged: heartbeat or "
                              "migration pacing is drawing outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedMembershipCampaignsDiverge) {
  EXPECT_NE(run_membership_campaign(41), run_membership_campaign(42));
}

/// A cached campaign: shuffled DLIO epochs behind the client cache tier
/// (write-back, 2Q replacement, epoch-aware warming on kWarmRngStream). The
/// digest covers the trace — kCache annotations included — plus every cache
/// counter, so a nondeterministic eviction clock or warm order (piolint D1)
/// moves it immediately.
std::uint64_t run_cached_campaign(std::uint64_t engine_seed, std::uint64_t workload_seed) {
  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, small_pfs()};
  driver::SimRunConfig run_config;
  run_config.cache.enabled = true;
  run_config.cache.scope = cache::CacheScope::kShared;
  run_config.cache.policy = cache::EvictionPolicy::kTwoQ;
  run_config.cache.prefetch = cache::PrefetchMode::kEpoch;
  run_config.cache.capacity_pages = 96;  // below the dataset: evictions + warming
  run_config.cache.max_dirty_pages = 32;
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  workload::DlioConfig config;
  config.ranks = 4;
  config.samples = 128;
  config.sample_size = Bytes::from_kib(64);
  config.samples_per_file = 32;
  config.batch_size = 8;
  config.epochs = 2;
  config.shuffle = true;
  config.seed = workload_seed;
  config.compute_per_batch = SimTime::zero();
  trace::Tracer tracer;
  const auto result = sim.run(*workload::dlio_like(config), &tracer);
  engine.assert_drained();
  return fold_run(tracer, result, engine).digest();
}

TEST(DeterminismRegression, SameSeedCachedCampaignsHashIdentical) {
  const std::uint64_t first = run_cached_campaign(31, 42);
  const std::uint64_t second = run_cached_campaign(31, 42);
  EXPECT_EQ(first, second) << "same-seed cached campaign diverged: cache "
                              "recency or warm order is drawing outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedCachedCampaignsDiverge) {
  EXPECT_NE(run_cached_campaign(31, 42), run_cached_campaign(31, 43));
}

TEST(DeterminismRegression, SameSeedFaultCampaignsHashIdentical) {
  const std::uint64_t first = run_fault_campaign(13);
  const std::uint64_t second = run_fault_campaign(13);
  EXPECT_EQ(first, second) << "same-seed fault campaign diverged: injector or "
                              "retry jitter is drawing outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedFaultCampaignsDiverge) {
  EXPECT_NE(run_fault_campaign(13), run_fault_campaign(14));
}

TEST(DeterminismRegression, FullEvaluationLoopIsReproducible) {
  auto run_loop = [] {
    eval::CampaignConfig config;
    config.testbed = small_pfs();
    config.model = small_pfs();
    config.model.disk_kind = pfs::DiskKind::kHdd;  // deliberately mis-calibrated model
    config.iterations = 2;
    config.seed = 11;
    workload::IorConfig ior;
    ior.ranks = 4;
    ior.block_size = Bytes::from_mib(2);
    ior.transfer_size = Bytes::from_mib(1);
    const auto workload = workload::ior_like(ior);
    eval::Campaign campaign{config};
    return eval::digest(config, campaign.run({workload.get()}));
  };
  EXPECT_EQ(run_loop(), run_loop());
}

}  // namespace
}  // namespace pio
