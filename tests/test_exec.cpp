// pio::exec: the deterministic parallel-sweep layer (DESIGN.md §11).
//
// Two families of guarantees under test. First, the pool's own contract:
// results merge in submission order, exceptions propagate lowest-index
// first after every task has run, and nested submission is rejected at any
// thread count. Second, the campaign-level determinism requirement the
// whole layer exists to preserve: a Campaign's eval::digest — across plain,
// faulted, durability, and cached configurations — must be byte-identical
// at 1, 2, and 8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "eval/campaign.hpp"
#include "exec/pool.hpp"
#include "fault/injector.hpp"
#include "pfs/pfs.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

namespace pio {
namespace {

// ----------------------------------------------------------- pool contract

TEST(ExecPool, ResolveThreadsPrecedence) {
  ASSERT_EQ(::setenv("PIO_THREADS", "6", 1), 0);
  EXPECT_EQ(exec::resolve_threads(3), 3) << "explicit request beats the environment";
  EXPECT_EQ(exec::resolve_threads(0), 6) << "PIO_THREADS applies when unset";
  ASSERT_EQ(::setenv("PIO_THREADS", "garbage", 1), 0);
  EXPECT_EQ(exec::resolve_threads(0), 1) << "unparseable PIO_THREADS falls back to serial";
  ASSERT_EQ(::setenv("PIO_THREADS", "auto", 1), 0);
  EXPECT_GE(exec::resolve_threads(0), 1);
  ASSERT_EQ(::setenv("PIO_THREADS", "9999", 1), 0);
  EXPECT_EQ(exec::resolve_threads(0), 256) << "clamped to the sanity ceiling";
  ASSERT_EQ(::unsetenv("PIO_THREADS"), 0);
  EXPECT_EQ(exec::resolve_threads(0), 1) << "no knob at all means serial";
}

TEST(ExecPool, MapOrderedReturnsResultsInSubmissionOrder) {
  exec::Pool pool{4};
  // Later tasks are cheaper, so under real parallelism completion order is
  // roughly reversed — the merge order must not care.
  const auto results = pool.map_ordered(64, [](std::size_t i) {
    volatile std::uint64_t sink = 0;
    for (std::uint64_t k = 0; k < (64 - i) * 1000; ++k) sink = sink + k;
    return i * i;
  });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ExecPool, EveryTaskRunsExactlyOnce) {
  exec::Pool pool{8};
  std::vector<std::atomic<int>> hits(100);
  pool.for_all(100, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ExecPool, LowestIndexExceptionWinsAfterAllTasksRan) {
  exec::Pool pool{4};
  std::atomic<int> ran{0};
  try {
    pool.for_all(16, [&ran](std::size_t i) {
      ++ran;
      if (i == 11) throw std::runtime_error("boom11");
      if (i == 3) throw std::runtime_error("boom3");
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom3") << "propagation must pick the lowest submission index";
  }
  EXPECT_EQ(ran.load(), 16) << "an exception must not abandon the remaining tasks";
}

TEST(ExecPool, NestedSubmissionIsRejectedInParallel) {
  exec::Pool pool{4};
  EXPECT_THROW(pool.for_all(8, [&pool](std::size_t) { pool.for_all(1, [](std::size_t) {}); }),
               std::logic_error);
}

TEST(ExecPool, NestedSubmissionIsRejectedInSerialToo) {
  // The rejection must not depend on the thread count, or a sweep that
  // "works" serially would deadlock the moment PIO_THREADS goes up.
  exec::Pool pool{1};
  EXPECT_THROW(pool.for_all(2, [&pool](std::size_t) { pool.for_all(1, [](std::size_t) {}); }),
               std::logic_error);
  EXPECT_FALSE(exec::Pool::in_task());
}

TEST(ExecPool, RapidTinyJobsSurviveLateWakingWorkers) {
  // Regression: a worker slow to wake could observe the epoch bump *after*
  // the submitter (plus faster workers) had drained the job and for_all had
  // already reset the shared pointer — it then dereferenced a null Job.
  // Tiny jobs on a wide pool make that window common; pre-fix this loop
  // crashed within a few hundred rounds on a loaded machine.
  exec::Pool pool{8};
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 2000; ++round) {
    pool.for_all(2, [&total](std::size_t i) { total += i + 1; });
  }
  EXPECT_EQ(total.load(), 2000u * 3u);
}

TEST(ExecPool, ZeroTasksIsANoOp) {
  exec::Pool pool{4};
  const auto results = pool.map_ordered(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(results.empty());
}

TEST(ExecPool, PoolIsReusableAcrossJobs) {
  exec::Pool pool{3};
  for (int round = 0; round < 20; ++round) {
    const auto results = pool.map_ordered(7, [round](std::size_t i) {
      return static_cast<std::uint64_t>(round) * 100 + i;
    });
    for (std::size_t i = 0; i < 7; ++i) {
      EXPECT_EQ(results[i], static_cast<std::uint64_t>(round) * 100 + i);
    }
  }
}

// ----------------------------------------------------------- seed splitting

TEST(SeedDerivation, PinnedValues) {
  // Golden values: these are the streams every campaign run draws from, so
  // a silent change to the split function shows up here, not as a vague
  // determinism-hash diff three layers up.
  EXPECT_EQ(derive_seed(1, 1, 0, 0), 0x2d770759bba40ff2ULL);
  EXPECT_EQ(derive_seed(1, 2, 0, 0), 0x02e7165f18d57327ULL);
  EXPECT_EQ(derive_seed(11, 1, 1, 0), 0x8427fdd9e3e3b86bULL);
  EXPECT_EQ(derive_seed(11, 2, 0, 1000), 0xd2acf6b323e5c776ULL);
  EXPECT_EQ(derive_seed(42, 1, 3, 2), 0xb6373dc1cacf4c1cULL);
}

TEST(SeedDerivation, NoPhaseCollisionAtThousandIterations) {
  // The footgun this replaces: testbed runs used `seed + iter` and model
  // runs `seed + 1000 + iter`, so (measure, iter=1000) == (simulate,
  // iter=0). The split keys must stay pairwise distinct across phases and
  // deep iteration counts.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t phase = 1; phase <= 2; ++phase) {
    for (std::uint64_t iter = 0; iter <= 2000; iter += 100) {
      for (std::uint64_t w = 0; w < 4; ++w) {
        seen.push_back(derive_seed(7, phase, iter, w));
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "derived seeds collided";
}

// --------------------------------------- campaign determinism vs threads

pfs::PfsConfig small_pfs() {
  pfs::PfsConfig config;
  config.clients = 8;
  config.io_nodes = 2;
  config.osts = 4;
  config.disk_kind = pfs::DiskKind::kSsd;
  return config;
}

/// Build a 4-workload sweep (two IOR geometries, shuffled DLIO, a DAG
/// workflow) and run the closed loop at the given thread count.
std::uint64_t run_campaign_at(std::uint32_t threads, eval::CampaignConfig config) {
  config.threads = threads;
  config.iterations = 2;

  workload::IorConfig ior_a;
  ior_a.ranks = 4;
  ior_a.block_size = Bytes::from_mib(4);
  ior_a.transfer_size = Bytes::from_mib(1);
  workload::IorConfig ior_b = ior_a;
  ior_b.transfer_size = Bytes::from_kib(256);
  const auto wa = workload::ior_like(ior_a);
  const auto wb = workload::ior_like(ior_b);

  workload::DlioConfig dlio;
  dlio.ranks = 4;
  dlio.samples = 128;
  dlio.samples_per_file = 32;
  dlio.batch_size = 8;
  dlio.shuffle = true;
  dlio.seed = 5;
  const auto wc = workload::dlio_like(dlio);

  workload::WorkflowConfig wf;
  wf.workers = 4;
  wf.stages = 2;
  wf.tasks_per_stage = 8;
  wf.files_per_task = 2;
  const auto wd = workload::workflow_dag(wf);

  eval::Campaign campaign{config};
  return eval::digest(config, campaign.run({wa.get(), wb.get(), wc.get(), wd.get()}));
}

TEST(CampaignThreadDeterminism, PlainCampaignHashesIdenticalAt1_2_8Threads) {
  eval::CampaignConfig config;
  config.testbed = small_pfs();
  config.model = small_pfs();
  config.model.disk_kind = pfs::DiskKind::kHdd;  // mis-calibrated on purpose
  config.seed = 11;
  const auto serial = run_campaign_at(1, config);
  EXPECT_EQ(serial, run_campaign_at(2, config));
  EXPECT_EQ(serial, run_campaign_at(8, config));
}

TEST(CampaignThreadDeterminism, FaultCampaignHashesIdenticalAt1_2_8Threads) {
  eval::CampaignConfig config;
  config.testbed = small_pfs();
  config.testbed.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0))
      .ost_straggler(2, SimTime::from_ms(1.0), SimTime::from_ms(30.0), 5.0);
  fault::InjectorConfig injector;
  injector.horizon = SimTime::from_ms(100.0);
  injector.ost_crash_rate_hz = 40.0;
  injector.ost_outage_mean = SimTime::from_ms(4.0);
  config.testbed.fault_injector = injector;
  config.testbed.retry.max_attempts = 3;
  config.testbed.retry.op_timeout = SimTime::from_ms(40.0);
  config.testbed.retry.failover = true;
  config.model = small_pfs();
  config.seed = 13;
  const auto serial = run_campaign_at(1, config);
  EXPECT_EQ(serial, run_campaign_at(2, config));
  EXPECT_EQ(serial, run_campaign_at(8, config));
}

TEST(CampaignThreadDeterminism, DurabilityCampaignHashesIdenticalAt1_2_8Threads) {
  eval::CampaignConfig config;
  config.testbed = small_pfs();
  config.testbed.durability.track_contents = true;
  config.testbed.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(128.0);
  config.layout.replicas = 2;  // the driver's create layout wins over the MDS default
  config.testbed.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0));
  config.testbed.retry.max_attempts = 2;
  config.testbed.retry.failover = true;
  config.model = small_pfs();
  // The replicated create layout applies to the model replay too, and
  // replicated layouts require contents tracking on whichever system runs
  // them.
  config.model.durability.track_contents = true;
  config.seed = 21;
  const auto serial = run_campaign_at(1, config);
  EXPECT_EQ(serial, run_campaign_at(2, config));
  EXPECT_EQ(serial, run_campaign_at(8, config));
}

TEST(CampaignThreadDeterminism, MembershipCampaignHashesIdenticalAt1_2_8Threads) {
  // Membership churn on the testbed: epoch-versioned cluster map, jittered
  // heartbeats, a scripted drain and a crash detected (not observed
  // omnisciently) mid-sweep. Every stale-map bounce, refresh and migration
  // mark flows into the digest, which must not move with the thread count.
  eval::CampaignConfig config;
  config.testbed = small_pfs();
  config.testbed.durability.track_contents = true;
  config.testbed.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(128.0);
  config.layout.replicas = 2;  // the driver's create layout wins over the MDS default
  config.testbed.cluster.enabled = true;
  config.testbed.cluster.placement = pfs::PlacementMode::kRendezvousHash;
  config.testbed.cluster.heartbeat_interval = SimTime::from_ms(2.0);
  config.testbed.cluster.heartbeat_grace = 2;
  config.testbed.cluster.horizon = SimTime::from_ms(80.0);
  config.testbed.cluster.drain(2, SimTime::from_ms(10.0));
  config.testbed.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0));
  config.testbed.retry.max_attempts = 4;
  config.testbed.retry.base_backoff = SimTime::from_ms(1.0);
  config.model = small_pfs();
  // The replicated create layout applies to the model replay too (same
  // tracking requirement as the durability campaign above).
  config.model.durability.track_contents = true;
  config.seed = 41;
  const auto serial = run_campaign_at(1, config);
  EXPECT_EQ(serial, run_campaign_at(2, config));
  EXPECT_EQ(serial, run_campaign_at(8, config));
}

TEST(CampaignThreadDeterminism, OverloadCampaignHashesIdenticalAt1_2_8Threads) {
  // Full overload-control stack on the testbed: bounded server queues with
  // CoDel shedding, retry budget, per-OST circuit breakers with jittered
  // open windows (kBreakerRngStream), adaptive timeouts and an end-to-end
  // deadline — under injector weather so the knobs actually fire. Every
  // rejection, shed, budget denial and breaker transition flows into the
  // digest, which must not move with the thread count.
  eval::CampaignConfig config;
  config.testbed = small_pfs();
  fault::InjectorConfig injector;
  injector.horizon = SimTime::from_ms(100.0);
  injector.ost_crash_rate_hz = 40.0;
  injector.ost_outage_mean = SimTime::from_ms(4.0);
  config.testbed.fault_injector = injector;
  config.testbed.admission.policy = pfs::AdmissionPolicy::kCodelShed;
  config.testbed.admission.shed_target = SimTime::from_ms(2.0);
  config.testbed.retry.max_attempts = 4;
  config.testbed.retry.adaptive_timeout = true;
  config.testbed.retry.initial_timeout = SimTime::from_ms(20.0);
  config.testbed.retry.op_deadline = SimTime::from_ms(120.0);
  config.testbed.retry.retry_budget = true;
  config.testbed.retry.budget_ratio = 0.5;
  config.testbed.retry.breaker = true;
  config.testbed.retry.breaker_threshold = 3;
  config.testbed.retry.breaker_open_base = SimTime::from_ms(10.0);
  config.model = small_pfs();
  config.seed = 17;
  const auto serial = run_campaign_at(1, config);
  EXPECT_EQ(serial, run_campaign_at(2, config));
  EXPECT_EQ(serial, run_campaign_at(8, config));
}

TEST(CampaignThreadDeterminism, CachedCampaignHashesIdenticalAt1_2_8Threads) {
  eval::CampaignConfig config;
  config.testbed = small_pfs();
  config.model = small_pfs();
  config.cache.enabled = true;
  config.cache.scope = cache::CacheScope::kShared;
  config.cache.policy = cache::EvictionPolicy::kTwoQ;
  config.cache.prefetch = cache::PrefetchMode::kEpoch;
  config.cache.capacity_pages = 96;
  config.cache.max_dirty_pages = 32;
  config.seed = 31;
  const auto serial = run_campaign_at(1, config);
  EXPECT_EQ(serial, run_campaign_at(2, config));
  EXPECT_EQ(serial, run_campaign_at(8, config));
}

TEST(CampaignThreadDeterminism, DifferentSeedsStillDiverge) {
  // Needs a seed-sensitive system: a fault-free run draws nothing from the
  // engine streams, so only an injector-driven config can prove the campaign
  // seed actually reaches the per-task engines.
  eval::CampaignConfig config;
  config.testbed = small_pfs();
  fault::InjectorConfig injector;
  injector.horizon = SimTime::from_ms(100.0);
  injector.ost_crash_rate_hz = 40.0;
  injector.ost_outage_mean = SimTime::from_ms(4.0);
  config.testbed.fault_injector = injector;
  config.testbed.retry.max_attempts = 3;
  config.testbed.retry.op_timeout = SimTime::from_ms(40.0);
  config.testbed.retry.failover = true;
  config.model = small_pfs();
  config.seed = 11;
  auto other = config;
  other.seed = 12;
  EXPECT_NE(run_campaign_at(2, config), run_campaign_at(2, other))
      << "seed change must move the campaign digest (dead seed plumbing otherwise)";
}

}  // namespace
}  // namespace pio
