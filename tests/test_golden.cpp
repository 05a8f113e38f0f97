// Golden digest pins: the science of the model, frozen.
//
// The determinism tests (test_determinism, test_exec, test_parsim) prove
// that equal inputs give equal outputs at any thread count; they
// pass just as well after a change that moves every simulated number. This
// file pins the numbers themselves through the library digests: a plain
// driver::digest(SimRunResult), the C-12 eval::digest(CampaignResult), the
// C-13 FacilityResult::digest, and one run each with a fault plan,
// durability R=2 with rebuild, cluster churn, overload control, OST
// shedding, the client cache and burst buffers. Any model change that
// moves a simulated result fails here, and the failure names the config.
//
// Each single run is also pinned observed: a `series/<config>` row folds
// every sample of a 1 ms trace::ServerStatsCollector attached to the run
// (OST, MDS, resilience, rebuild and cache series, plus the per-window OST
// imbalance), and the observed run must still hit the unobserved golden —
// observing a run never changes its result.
//
// A golden changes only on purpose, in a change whose CHANGES.md entry
// lists every old -> new value and says why. Rebaseline recipe:
//   ./build/tests/test_golden 2>&1 | grep 'golden\[' — paste each "got" value into kGolden.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "common/fnv.hpp"
#include "driver/sim_driver.hpp"
#include "eval/campaign.hpp"
#include "eval/facility.hpp"
#include "fault/injector.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
#include "trace/server_stats.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

namespace pio {
namespace {

struct Golden {
  std::string_view config;
  std::uint64_t digest;
};

// One row per pinned config; the test of the same name computes it.
constexpr Golden kGolden[] = {
    {"plain", 0xc8f2783f6948ea49ULL},
    {"c12_campaign", 0xb1aa205c23ed031cULL},
    {"c13_facility", 0x5f32b2eadbc38a5aULL},
    {"fault_plan", 0xf619307cc2bd968eULL},
    {"durability_r2_rebuild", 0xac1a0c3a19910a2dULL},
    {"cluster_churn", 0x5c7b3b4975fb90beULL},
    {"overload_control", 0x6bd159f42c643894ULL},
    {"ost_shed", 0xe3b430053b49d7eULL},
    {"client_cache", 0xa1e6a96fceb2f28cULL},
    {"burst_buffer", 0xe99a4855b3573925ULL},
    {"series/plain", 0x62a41ff41ace7986ULL},
    {"series/fault_plan", 0xfd78f4aec9e62053ULL},
    {"series/durability_r2_rebuild", 0x438b06634fa47425ULL},
    {"series/cluster_churn", 0xf3d97bb03c97559dULL},
    {"series/overload_control", 0x845c3a869b2745aaULL},
    {"series/ost_shed", 0x5762c177a442bc32ULL},
    {"series/client_cache", 0x50617fb772f1b8cbULL},
    {"series/burst_buffer", 0xc33bca954c709e63ULL},
};

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

void expect_golden(std::string_view config, std::uint64_t got) {
  for (const auto& row : kGolden) {
    if (row.config != config) continue;
    EXPECT_EQ(got, row.digest) << "golden[" << config << "]: got " << hex(got) << ", pinned "
                               << hex(row.digest);
    return;
  }
  ADD_FAILURE() << "golden[" << config << "]: no pinned value";
}

pfs::PfsConfig small_pfs() {
  pfs::PfsConfig config;
  config.clients = 8;
  config.io_nodes = 2;
  config.osts = 4;
  config.disk_kind = pfs::DiskKind::kSsd;
  return config;
}

std::unique_ptr<workload::Workload> small_ior() {
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  return workload::ior_like(ior);
}

/// One single-run golden config: the system, the workload and the run.
struct RunCase {
  pfs::PfsConfig system;
  std::unique_ptr<workload::Workload> workload;
  driver::SimRunConfig run_config{};
};

/// One execution-driven run, drained past the workload (rebuild, migration
/// and write-back passes), with the end-of-run audits. Returns the fold of
/// the result's digest plus the engine's event count. A non-null
/// `collector` observes the run; a non-null `ost_sheds` receives the ops
/// the OSTs shed, and a non-null `res_stats` the model's resilience rows.
std::uint64_t run_folded(const RunCase& run, trace::ServerStatsCollector* collector = nullptr,
                         std::uint64_t* ost_sheds = nullptr,
                         pfs::ResilienceStats* res_stats = nullptr) {
  sim::Engine engine{7};
  pfs::PfsModel model{engine, run.system};
  driver::ExecutionDrivenSimulator sim{engine, model, run.run_config};
  if (collector != nullptr) collector->attach(engine);
  const auto result = sim.run(*run.workload);
  engine.run();
  engine.assert_drained();
  model.assert_quiescent();
  if (ost_sheds != nullptr) {
    *ost_sheds = 0;
    for (std::uint32_t i = 0; i < model.ost_count(); ++i) {
      *ost_sheds += model.ost(i).stats().shed_ops;
    }
  }
  if (res_stats != nullptr) *res_stats = model.resilience_stats();
  Fnv64 h;
  h.mix(driver::digest(result));
  h.mix(engine.events_executed());
  return h.digest();
}

/// Fold of every field of every sample the collector holds, map by map in
/// key order, plus the bit patterns of the per-window OST imbalance.
std::uint64_t series_digest(const trace::ServerStatsCollector& c) {
  Fnv64 h;
  const auto mix_server = [&h](const trace::ServerSeries& series) {
    h.mix(series.size());
    for (const auto& [window, s] : series) {
      h.mix(window);
      h.mix(s.window);
      h.mix(s.read_ops);
      h.mix(s.write_ops);
      h.mix(s.meta_ops);
      h.mix(s.bytes_read.count());
      h.mix(s.bytes_written.count());
      h.mix(static_cast<std::uint64_t>(s.total_latency.ns()));
      h.mix(s.max_queue_depth);
      h.mix(s.failed_ops);
    }
  };
  h.mix(c.ost_series().size());
  for (const auto& [ost, series] : c.ost_series()) {
    h.mix(ost);
    mix_server(series);
  }
  mix_server(c.mds_series());
  using RK = pfs::ResilienceEventKind;
  using CK = cache::CacheEventKind;
  h.mix(c.resilience_series().size());
  for (const auto& [window, s] : c.resilience_series()) {
    h.mix(window);
    h.mix(s.window);
    // Every kind in enum order but the rebuild pair, which has its own series.
    for (std::size_t k = 0; k < s.count.size(); ++k) {
      const auto kind = static_cast<RK>(k);
      if (kind != RK::kRebuildStart && kind != RK::kRebuildDone) h.mix(s.count[k]);
    }
  }
  h.mix(c.rebuild_series().size());
  for (const auto& [ost, series] : c.rebuild_series()) {
    h.mix(ost);
    h.mix(series.size());
    for (const auto& [window, s] : series) {
      for (const std::uint64_t v :
           {window, s.window, s.count_of(RK::kRebuildStart), s.count_of(RK::kRebuildDone),
            s.bytes_of(RK::kRebuildDone).count()}) {
        h.mix(v);
      }
    }
  }
  h.mix(c.cache_series().size());
  for (const auto& [window, s] : c.cache_series()) {
    h.mix(window);
    h.mix(s.window);
    for (const std::uint64_t n : s.count) h.mix(n);
    for (const CK kind : {CK::kHit, CK::kMiss, CK::kWriteback}) h.mix(s.bytes_of(kind).count());
  }
  const auto imbalance = c.ost_imbalance();
  h.mix(imbalance.size());
  for (const auto& [window, factor] : imbalance) {
    h.mix(window);
    h.mix(std::bit_cast<std::uint64_t>(factor));
  }
  return h.digest();
}

/// Runs `config` with a 1 ms collector attached: the result must still
/// equal the unobserved golden, and the series fold is pinned.
trace::ServerStatsCollector observed(std::string_view config, const RunCase& run) {
  trace::ServerStatsCollector collector{SimTime::from_ms(1.0)};
  expect_golden(config, run_folded(run, &collector));
  expect_golden("series/" + std::string(config), series_digest(collector));
  return collector;
}

/// Count of `kind` summed over a collector's resilience windows.
std::uint64_t total(const trace::ResilienceSeries& series, pfs::ResilienceEventKind kind) {
  std::uint64_t sum = 0;
  for (const auto& [window, sample] : series) sum += sample.count_of(kind);
  return sum;
}

fault::InjectorConfig stormy_weather() {
  fault::InjectorConfig injector;
  injector.horizon = SimTime::from_ms(100.0);
  injector.ost_crash_rate_hz = 60.0;
  injector.ost_outage_mean = SimTime::from_ms(4.0);
  injector.ost_straggler_rate_hz = 60.0;
  injector.ost_straggler_mean = SimTime::from_ms(10.0);
  return injector;
}

RunCase plain() { return {small_pfs(), small_ior()}; }

RunCase fault_plan() {
  auto config = small_pfs();
  config.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0))
      .ost_straggler(2, SimTime::from_ms(1.0), SimTime::from_ms(30.0), 5.0);
  config.fault_injector = stormy_weather();
  config.retry.max_attempts = 3;
  config.retry.op_timeout = SimTime::from_ms(40.0);
  config.retry.failover = true;
  return {config, small_ior()};
}

RunCase durability_r2_rebuild() {
  auto config = small_pfs();
  config.durability.track_contents = true;
  config.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(128.0);
  config.mds.default_layout.replicas = 2;
  config.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0))
      .ost_down(0, SimTime::from_ms(20.0), SimTime::from_ms(26.0));
  config.retry.max_attempts = 2;
  config.retry.failover = true;
  driver::SimRunConfig run_config;
  run_config.layout.replicas = 2;
  return {config, small_ior(), run_config};
}

RunCase cluster_churn() {
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
  driver::SimRunConfig run_config;
  run_config.layout.replicas = 2;
  return {config, small_ior(), run_config};
}

RunCase overload_control() {
  auto config = small_pfs();
  config.fault_injector = stormy_weather();
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
  return {config, small_ior()};
}

/// Eight ranks on one HDD OST with a 1 ms CoDel target: the OST sheds, and
/// the clients retry the kOverloaded sheds.
RunCase ost_shed() {
  auto config = small_pfs();
  config.disk_kind = pfs::DiskKind::kHdd;
  config.admission.policy = pfs::AdmissionPolicy::kCodelShed;
  config.admission.shed_target = SimTime::from_ms(1.0);
  config.retry.max_attempts = 4;
  workload::IorConfig ior;
  ior.ranks = 8;
  ior.block_size = Bytes::from_mib(2);
  ior.transfer_size = Bytes::from_mib(1);
  driver::SimRunConfig run_config;
  run_config.layout.stripe_count = 1;
  return {config, workload::ior_like(ior), run_config};
}

RunCase client_cache() {
  driver::SimRunConfig run_config;
  run_config.cache.enabled = true;
  run_config.cache.scope = cache::CacheScope::kShared;
  run_config.cache.policy = cache::EvictionPolicy::kTwoQ;
  run_config.cache.prefetch = cache::PrefetchMode::kEpoch;
  run_config.cache.capacity_pages = 96;
  run_config.cache.max_dirty_pages = 32;
  workload::DlioConfig dlio;
  dlio.ranks = 4;
  dlio.samples = 128;
  dlio.sample_size = Bytes::from_kib(64);
  dlio.samples_per_file = 32;
  dlio.batch_size = 8;
  dlio.epochs = 2;
  dlio.shuffle = true;
  dlio.seed = 42;
  dlio.compute_per_batch = SimTime::zero();
  return {small_pfs(), workload::dlio_like(dlio), run_config};
}

RunCase burst_buffer() {
  auto config = small_pfs();
  config.disk_kind = pfs::DiskKind::kHdd;
  config.bb_placement = pfs::BbPlacement::kPerIoNode;
  return {config, small_ior()};
}

TEST(GoldenDigest, Plain) { expect_golden("plain", run_folded(plain())); }

TEST(GoldenDigest, FaultPlan) { expect_golden("fault_plan", run_folded(fault_plan())); }

TEST(GoldenDigest, DurabilityR2Rebuild) {
  expect_golden("durability_r2_rebuild", run_folded(durability_r2_rebuild()));
}

TEST(GoldenDigest, ClusterChurn) {
  expect_golden("cluster_churn", run_folded(cluster_churn()));
}

TEST(GoldenDigest, OverloadControl) {
  expect_golden("overload_control", run_folded(overload_control()));
}

TEST(GoldenDigest, OstShed) {
  std::uint64_t sheds = 0;
  expect_golden("ost_shed", run_folded(ost_shed(), nullptr, &sheds));
  EXPECT_GT(sheds, 0u);
}

TEST(GoldenDigest, ClientCache) { expect_golden("client_cache", run_folded(client_cache())); }

TEST(GoldenDigest, BurstBuffer) { expect_golden("burst_buffer", run_folded(burst_buffer())); }

// Observed runs: each asserts the series its config exists to produce.

TEST(GoldenSeries, Plain) {
  const auto c = observed("plain", plain());
  EXPECT_EQ(c.ost_series().size(), 4u);
  EXPECT_FALSE(c.mds_series().empty());
  EXPECT_FALSE(c.ost_imbalance().empty());
}

TEST(GoldenSeries, FaultPlan) {
  const auto c = observed("fault_plan", fault_plan());
  EXPECT_GT(total(c.resilience_series(), pfs::ResilienceEventKind::kRetry), 0u);
  EXPECT_GT(total(c.resilience_series(), pfs::ResilienceEventKind::kFailover), 0u);
}

TEST(GoldenSeries, DurabilityR2Rebuild) {
  const auto c = observed("durability_r2_rebuild", durability_r2_rebuild());
  EXPECT_FALSE(c.rebuild_series().empty());
}

TEST(GoldenSeries, ClusterChurn) {
  const auto c = observed("cluster_churn", cluster_churn());
  EXPECT_GT(total(c.resilience_series(), pfs::ResilienceEventKind::kDetectedDown), 0u);
  EXPECT_GT(total(c.resilience_series(), pfs::ResilienceEventKind::kDetectedUp), 0u);
}

TEST(GoldenSeries, OverloadControl) {
  const auto c = observed("overload_control", overload_control());
  EXPECT_GT(total(c.resilience_series(), pfs::ResilienceEventKind::kBreakerOpen), 0u);
}

// The kind table is the one place a resilience event is declared: each
// kind's spans, summed over the collector's windows, equal the stats row the
// table names for it, on every config that fires resilience events.
TEST(GoldenSeries, ResilienceWindowsSumToKindTableRows) {
  for (std::size_t i = 0; i < std::size(pfs::kResilienceKinds); ++i) {
    for (std::size_t j = i + 1; j < std::size(pfs::kResilienceKinds); ++j) {
      EXPECT_NE(pfs::kResilienceKinds[i].row, pfs::kResilienceKinds[j].row)
          << pfs::kResilienceKinds[i].name << " and " << pfs::kResilienceKinds[j].name;
    }
  }
  const std::pair<std::string_view, RunCase> runs[] = {
      {"fault_plan", fault_plan()},
      {"durability_r2_rebuild", durability_r2_rebuild()},
      {"cluster_churn", cluster_churn()},
      {"overload_control", overload_control()}};
  for (const auto& [config, run] : runs) {
    trace::ServerStatsCollector collector{SimTime::from_ms(1.0)};
    pfs::ResilienceStats stats;
    expect_golden(config, run_folded(run, &collector, nullptr, &stats));
    for (std::size_t k = 0; k < std::size(pfs::kResilienceKinds); ++k) {
      const auto kind = static_cast<pfs::ResilienceEventKind>(k);
      EXPECT_EQ(total(collector.resilience_series(), kind), stats.*pfs::kResilienceKinds[k].row)
          << config << ": " << pfs::to_string(kind);
    }
  }
}

TEST(GoldenSeries, OstShed) {
  const auto c = observed("ost_shed", ost_shed());
  std::uint64_t failed = 0;
  for (const auto& [ost, series] : c.ost_series()) {
    for (const auto& [window, s] : series) failed += s.failed_ops;
  }
  EXPECT_GT(failed, 0u);
}

TEST(GoldenSeries, ClientCache) {
  const auto c = observed("client_cache", client_cache());
  EXPECT_FALSE(c.cache_series().empty());
}

TEST(GoldenSeries, BurstBuffer) {
  const auto c = observed("burst_buffer", burst_buffer());
  EXPECT_FALSE(c.ost_series().empty());
}

// ------------------------------------------------------------------- C-12

pfs::PfsConfig reference_testbed(pfs::DiskKind disk) {
  pfs::PfsConfig config;
  config.clients = 16;
  config.io_nodes = 4;
  config.osts = 8;
  config.disk_kind = disk;
  return config;
}

TEST(GoldenDigest, C12Campaign) {
  workload::IorConfig ior_a;
  ior_a.ranks = 8;
  ior_a.block_size = Bytes::from_mib(8);
  ior_a.transfer_size = Bytes::from_mib(1);
  workload::IorConfig ior_b = ior_a;
  ior_b.transfer_size = Bytes::from_kib(256);
  workload::DlioConfig dlio;
  dlio.ranks = 8;
  dlio.samples = 512;
  dlio.samples_per_file = 64;
  dlio.batch_size = 16;
  dlio.shuffle = true;
  dlio.seed = 5;
  workload::WorkflowConfig wf;
  wf.workers = 8;
  wf.stages = 3;
  wf.tasks_per_stage = 16;
  wf.files_per_task = 2;
  const auto a = workload::ior_like(ior_a);
  const auto b = workload::ior_like(ior_b);
  const auto c = workload::dlio_like(dlio);
  const auto d = workload::workflow_dag(wf);

  eval::CampaignConfig config;
  config.testbed = reference_testbed(pfs::DiskKind::kSsd);
  config.model = reference_testbed(pfs::DiskKind::kHdd);
  config.iterations = 3;
  config.seed = 11;
  config.threads = 1;
  eval::Campaign campaign{config};
  expect_golden("c12_campaign",
                eval::digest(config, campaign.run({a.get(), b.get(), c.get(), d.get()})));
}

// ------------------------------------------------------------------- C-13

TEST(GoldenDigest, C13Facility) {
  workload::IorConfig ior_a;
  ior_a.ranks = 4;
  ior_a.block_size = Bytes::from_mib(4);
  ior_a.transfer_size = Bytes::from_mib(1);
  workload::IorConfig ior_b = ior_a;
  ior_b.transfer_size = Bytes::from_kib(256);
  workload::DlioConfig dlio;
  dlio.ranks = 4;
  dlio.samples = 256;
  dlio.samples_per_file = 64;
  dlio.batch_size = 8;
  dlio.shuffle = true;
  dlio.seed = 5;
  workload::WorkflowConfig wf;
  wf.workers = 4;
  wf.stages = 2;
  wf.tasks_per_stage = 8;
  wf.files_per_task = 2;
  std::vector<std::unique_ptr<workload::Workload>> tenants;
  tenants.push_back(workload::ior_like(ior_a));
  tenants.push_back(workload::ior_like(ior_b));
  tenants.push_back(workload::dlio_like(dlio));
  tenants.push_back(workload::workflow_dag(wf));

  std::vector<eval::FacilityCell> cells;
  for (std::size_t i = 0; i < 8; ++i) {
    eval::FacilityCell cell;
    cell.system = small_pfs();
    cell.workload = tenants[i % tenants.size()].get();
    cells.push_back(cell);
  }
  eval::FacilityConfig config;
  config.seed = 11;
  config.threads = 1;
  expect_golden("c13_facility", eval::run_facility(config, cells).digest());
}

}  // namespace
}  // namespace pio
