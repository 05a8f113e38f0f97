// Golden digest pins: the science of the model, frozen.
//
// The determinism tests (test_determinism, test_exec, test_parsim) prove
// that equal inputs give equal outputs at any thread count; they
// pass just as well after a change that moves every simulated number. This
// file pins the numbers themselves through the library digests: a plain
// driver::digest(SimRunResult), the C-12 eval::digest(CampaignResult), the
// C-13 FacilityResult::digest, and one run each with a fault plan,
// durability R=2 with rebuild, cluster churn, overload control, the client
// cache and burst buffers. Any model change that moves a simulated result
// fails here, and the failure names the config.
//
// A golden changes only on purpose, in a change whose CHANGES.md entry
// lists every old -> new value and says why. Rebaseline recipe:
//   ./build/tests/test_golden 2>&1 | grep 'golden\[' — paste each "got" value into kGolden.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.hpp"
#include "driver/sim_driver.hpp"
#include "eval/campaign.hpp"
#include "eval/facility.hpp"
#include "fault/injector.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
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
    {"client_cache", 0xa1e6a96fceb2f28cULL},
    {"burst_buffer", 0xe99a4855b3573925ULL},
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

/// One execution-driven run, drained past the workload (rebuild, migration
/// and write-back passes), with the end-of-run audits. Returns the fold of
/// the result's digest plus the engine's event count.
std::uint64_t run_folded(const pfs::PfsConfig& system, const workload::Workload& workload,
                         driver::SimRunConfig run_config = {}, std::uint64_t seed = 7) {
  sim::Engine engine{seed};
  pfs::PfsModel model{engine, system};
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  const auto result = sim.run(workload);
  engine.run();
  engine.assert_drained();
  model.assert_quiescent();
  Fnv64 h;
  h.mix(driver::digest(result));
  h.mix(engine.events_executed());
  return h.digest();
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

TEST(GoldenDigest, Plain) {
  expect_golden("plain", run_folded(small_pfs(), *small_ior()));
}

TEST(GoldenDigest, FaultPlan) {
  auto config = small_pfs();
  config.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0))
      .ost_straggler(2, SimTime::from_ms(1.0), SimTime::from_ms(30.0), 5.0);
  config.fault_injector = stormy_weather();
  config.retry.max_attempts = 3;
  config.retry.op_timeout = SimTime::from_ms(40.0);
  config.retry.failover = true;
  expect_golden("fault_plan", run_folded(config, *small_ior()));
}

TEST(GoldenDigest, DurabilityR2Rebuild) {
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
  expect_golden("durability_r2_rebuild", run_folded(config, *small_ior(), run_config));
}

TEST(GoldenDigest, ClusterChurn) {
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
  expect_golden("cluster_churn", run_folded(config, *small_ior(), run_config));
}

TEST(GoldenDigest, OverloadControl) {
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
  expect_golden("overload_control", run_folded(config, *small_ior()));
}

TEST(GoldenDigest, ClientCache) {
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
  expect_golden("client_cache", run_folded(small_pfs(), *workload::dlio_like(dlio), run_config));
}

TEST(GoldenDigest, BurstBuffer) {
  auto config = small_pfs();
  config.disk_kind = pfs::DiskKind::kHdd;
  config.bb_placement = pfs::BbPlacement::kPerIoNode;
  expect_golden("burst_buffer", run_folded(config, *small_ior()));
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
