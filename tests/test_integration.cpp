// Cross-module integration and property tests: conservation invariants
// across the whole stack, determinism under configuration sweeps, fault
// injection, and the trace/profile consistency contract.
#include <gtest/gtest.h>

#include <ostream>

#include "analysis/job_analysis.hpp"
#include "analysis/system_analysis.hpp"
#include "driver/measured_runner.hpp"
#include "par/comm.hpp"
#include "driver/sim_driver.hpp"
#include "trace/backend_shim.hpp"
#include "trace/profiler.hpp"
#include "trace/server_stats.hpp"
#include "trace/tracer.hpp"
#include "vfs/fault_injection.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

namespace pio {
namespace {

using namespace pio::literals;

// ----------------------------------------------------------- property sweep

struct SystemCase {
  std::string name;
  pfs::DiskKind disk;
  pfs::BbPlacement bb;
  std::uint32_t osts;
  std::uint32_t stripe_count;
};

/// Print the case by name, so test listings carry no raw struct bytes.
void PrintTo(const SystemCase& c, std::ostream* os) { *os << c.name; }

class PfsInvariantTest : public ::testing::TestWithParam<SystemCase> {};

/// Conservation invariant: every byte a write-workload issues is eventually
/// on the OSTs (possibly via the burst buffer), regardless of system
/// configuration — and two runs of the same seed are identical.
TEST_P(PfsInvariantTest, BytesAreConservedAndRunsAreDeterministic) {
  const auto& p = GetParam();
  auto run_once = [&] {
    sim::Engine engine{42};
    pfs::PfsConfig system;
    system.clients = 8;
    system.io_nodes = 2;
    system.osts = p.osts;
    system.disk_kind = p.disk;
    system.bb_placement = p.bb;
    pfs::PfsModel model{engine, system};
    driver::SimRunConfig run_config;
    run_config.layout = pfs::StripeLayout{1_MiB, p.stripe_count, 0};
    driver::ExecutionDrivenSimulator sim{engine, model, run_config};
    workload::IorConfig ior;
    ior.ranks = 8;
    ior.block_size = 4_MiB;
    ior.transfer_size = 1_MiB;
    const auto result = sim.run(*workload::ior_like(ior));
    engine.run();  // drain burst buffers
    EXPECT_EQ(result.failed_ops, 0u) << p.name;
    EXPECT_TRUE(model.buffers_quiescent()) << p.name;
    Bytes on_osts = Bytes::zero();
    for (std::uint32_t i = 0; i < model.ost_count(); ++i) {
      on_osts += model.ost(i).stats().bytes_written;
    }
    EXPECT_EQ(on_osts, result.bytes_written) << p.name;
    EXPECT_EQ(result.bytes_written, 32_MiB) << p.name;
    return result.makespan.ns();
  };
  EXPECT_EQ(run_once(), run_once()) << "non-deterministic: " << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Systems, PfsInvariantTest,
    ::testing::Values(
        SystemCase{"hdd-direct", pfs::DiskKind::kHdd, pfs::BbPlacement::kNone, 8, 4},
        SystemCase{"ssd-direct", pfs::DiskKind::kSsd, pfs::BbPlacement::kNone, 8, 4},
        SystemCase{"hdd-bb-node", pfs::DiskKind::kHdd, pfs::BbPlacement::kPerIoNode, 8, 4},
        SystemCase{"hdd-bb-shared", pfs::DiskKind::kHdd, pfs::BbPlacement::kShared, 8, 4},
        SystemCase{"single-ost", pfs::DiskKind::kSsd, pfs::BbPlacement::kNone, 1, 1},
        SystemCase{"wide-stripe", pfs::DiskKind::kSsd, pfs::BbPlacement::kNone, 16, 16},
        SystemCase{"narrow-stripe", pfs::DiskKind::kHdd, pfs::BbPlacement::kNone, 16, 1}),
    [](const auto& param_info) {
      std::string name = param_info.param.name;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ------------------------------------------- measured vs simulated parity

/// The same workload must move the same bytes on the measured path (real
/// VFS) and the simulated path (PFS model) — the two halves of the
/// toolkit agree on semantics.
TEST(PathParityTest, MeasuredAndSimulatedAgreeOnVolumes) {
  workload::WorkflowConfig wf;
  wf.workers = 4;
  wf.stages = 2;
  wf.tasks_per_stage = 8;
  wf.compute_per_task = SimTime::zero();
  const auto w = workload::workflow_dag(wf);

  vfs::FileSystem fs;
  const auto measured = driver::run_measured(fs, *w, nullptr);

  sim::Engine engine{5};
  pfs::PfsConfig system;
  system.clients = 4;
  system.io_nodes = 2;
  system.osts = 4;
  system.disk_kind = pfs::DiskKind::kSsd;
  pfs::PfsModel model{engine, system};
  driver::ExecutionDrivenSimulator sim{engine, model};
  const auto simulated = sim.run(*w);

  EXPECT_EQ(measured.bytes_written, simulated.bytes_written);
  EXPECT_EQ(measured.bytes_read, simulated.bytes_read);
  EXPECT_EQ(measured.failed_ops, 0u);
  EXPECT_EQ(simulated.failed_ops, 0u);
}

/// Profiles computed from the measured and the simulated trace of the same
/// workload agree on every volume counter.
TEST(PathParityTest, ProfilesAgreeAcrossPaths) {
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = 2_MiB;
  ior.transfer_size = 512_KiB;
  ior.read_phase = true;
  const auto w = workload::ior_like(ior);

  trace::Profiler measured_profiler;
  vfs::FileSystem fs;
  (void)driver::run_measured(fs, *w, &measured_profiler);

  trace::Profiler sim_profiler;
  sim::Engine engine{5};
  pfs::PfsConfig system;
  system.clients = 4;
  system.io_nodes = 2;
  system.osts = 4;
  system.disk_kind = pfs::DiskKind::kSsd;
  pfs::PfsModel model{engine, system};
  driver::ExecutionDrivenSimulator sim{engine, model};
  (void)sim.run(*w, &sim_profiler);

  const auto a = measured_profiler.snapshot().summarize();
  const auto b = sim_profiler.snapshot().summarize();
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.files, b.files);
  EXPECT_EQ(a.ranks, b.ranks);
}

// ----------------------------------------------------------- fault injection

TEST(FaultInjectionTest, DeterministicAndCounted) {
  vfs::FileSystem fs;
  vfs::LocalBackend inner{fs};
  vfs::FaultPlan plan;
  plan.write_failure = 0.3;
  plan.seed = 7;
  auto run_once = [&] {
    vfs::FaultInjectionBackend flaky{inner, plan};
    std::vector<bool> outcomes;
    auto fd = flaky.open("/f", {vfs::OpenMode::kReadWrite, true, true});
    EXPECT_TRUE(fd.ok());
    std::vector<std::byte> buf(128);
    for (int i = 0; i < 100; ++i) {
      outcomes.push_back(flaky.pwrite(fd.value(), buf, 0).ok());
    }
    flaky.close(fd.value());
    return outcomes;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second) << "fault injection must be deterministic";
  const auto failures = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), false));
  EXPECT_GT(failures, 15u);
  EXPECT_LT(failures, 45u);
}

TEST(FaultInjectionTest, GracePeriodProtectsSetup) {
  vfs::FileSystem fs;
  vfs::LocalBackend inner{fs};
  vfs::FaultPlan plan;
  plan.open_failure = 1.0;  // every open would fail...
  plan.grace_ops = 5;       // ...after the first five operations
  vfs::FaultInjectionBackend flaky{inner, plan};
  for (int i = 0; i < 5; ++i) {
    auto fd = flaky.open("/f" + std::to_string(i), {vfs::OpenMode::kReadWrite, true, false});
    EXPECT_TRUE(fd.ok()) << i;
  }
  EXPECT_FALSE(flaky.open("/late", {vfs::OpenMode::kReadWrite, true, false}).ok());
  EXPECT_EQ(flaky.injected_faults(), 1u);
}

TEST(FaultInjectionTest, TracersRecordInjectedFailures) {
  vfs::FileSystem fs;
  vfs::LocalBackend inner{fs};
  vfs::FaultPlan plan;
  plan.read_failure = 1.0;
  plan.grace_ops = 2;  // open + write succeed
  vfs::FaultInjectionBackend flaky{inner, plan};
  trace::Tracer tracer;
  trace::ManualClock clock;
  trace::TracingBackend traced{flaky, tracer, clock, 0};
  auto fd = traced.open("/f", {vfs::OpenMode::kReadWrite, true, false});
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(64);
  ASSERT_TRUE(traced.pwrite(fd.value(), buf, 0).ok());
  EXPECT_FALSE(traced.pread(fd.value(), buf, 0).ok());
  const auto trace = tracer.snapshot();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_TRUE(trace.events()[0].ok);
  EXPECT_TRUE(trace.events()[1].ok);
  EXPECT_FALSE(trace.events()[2].ok);  // the injected read failure
  EXPECT_EQ(trace.events()[2].op, trace::OpKind::kRead);
}

TEST(FaultInjectionTest, MeasuredRunnerSurvivesAndReportsFaults) {
  // A DL job on a file system with a 10% read failure rate: the runner must
  // finish (no hangs, no crashes) and report the failures honestly.
  workload::DlioConfig dl;
  dl.ranks = 4;
  dl.samples = 256;
  dl.samples_per_file = 64;
  dl.sample_size = 4_KiB;
  dl.compute_per_batch = SimTime::zero();
  const auto w = workload::dlio_like(dl);

  vfs::FileSystem fs;
  vfs::LocalBackend inner{fs};
  vfs::FaultPlan plan;
  plan.read_failure = 0.1;
  plan.grace_ops = 50;  // let rank 0 write the dataset
  vfs::FaultInjectionBackend flaky{inner, plan};

  // run_measured builds its own LocalBackend; drive the workload manually
  // through the flaky backend using the public pieces instead.
  trace::Profiler profiler;
  trace::WallClock clock;
  par::Runtime runtime{dl.ranks};
  std::atomic<std::uint64_t> failed{0};
  runtime.run([&](par::Comm& comm) {
    trace::TracingBackend backend{flaky, profiler, clock, comm.rank()};
    auto stream = w->stream(comm.rank());
    std::map<FileId, vfs::Fd> fds;
    std::vector<std::byte> buf;
    while (auto op = stream->next()) {
      using K = workload::OpKind;
      const std::string& path = w->path(op->file);
      switch (op->kind) {
        case K::kCreate:
        case K::kOpen: {
          auto fd = backend.open(path,
                                 {vfs::OpenMode::kReadWrite, op->kind == K::kCreate, false});
          if (fd.ok()) fds[op->file] = fd.value();
          else ++failed;
          break;
        }
        case K::kClose:
          if (auto it = fds.find(op->file); it != fds.end()) {
            backend.close(it->second);
            fds.erase(it);
          }
          break;
        case K::kRead:
        case K::kWrite: {
          const auto it = fds.find(op->file);
          if (it == fds.end()) {
            ++failed;
            break;
          }
          buf.resize(static_cast<std::size_t>(op->size.count()));
          const bool ok = op->kind == K::kWrite
                              ? backend.pwrite(it->second, buf, op->offset).ok()
                              : backend.pread(it->second, buf, op->offset).ok();
          if (!ok) ++failed;
          break;
        }
        case K::kMkdir:
          (void)backend.mkdir(path);
          break;
        case K::kBarrier: comm.barrier(); break;
        default: break;
      }
    }
  });
  EXPECT_GT(failed.load(), 0u);
  EXPECT_GT(flaky.injected_faults(), 0u);
  // The profiler counted errors on the affected files.
  std::uint64_t profiled_errors = 0;
  const auto snapshot = profiler.snapshot();
  for (const auto& r : snapshot.records()) profiled_errors += r.errors;
  EXPECT_EQ(profiled_errors, failed.load());
}

// ---------------------------------------------------- end-to-end analysis

TEST(EndToEndTest, AnalysisPipelineOnSimulatedWorkflow) {
  // workload -> simulation -> trace + server stats -> both analyzers, all
  // in one pass; sanity-check every report field is populated coherently.
  workload::WorkflowConfig wf;
  wf.workers = 8;
  wf.stages = 3;
  wf.tasks_per_stage = 16;
  wf.compute_per_task = SimTime::from_ms(10.0);
  sim::Engine engine{9};
  pfs::PfsConfig system;
  system.clients = 8;
  system.io_nodes = 2;
  system.osts = 8;
  system.disk_kind = pfs::DiskKind::kSsd;
  pfs::PfsModel model{engine, system};
  trace::Tracer tracer;
  trace::ServerStatsCollector servers{SimTime::from_ms(10.0)};
  servers.attach(engine);
  driver::ExecutionDrivenSimulator sim{engine, model};
  const auto result = sim.run(*workload::workflow_dag(wf), &tracer);
  engine.run();

  const auto job = analysis::analyze_job(tracer.take(),
                                         {SimTime::from_ms(10.0), 128, 0.3});
  EXPECT_EQ(job.bytes_written, result.bytes_written);
  EXPECT_EQ(job.bytes_read, result.bytes_read);
  EXPECT_GT(job.metadata_fraction(), 0.15);
  EXPECT_GE(job.phases.size(), 1u);

  const auto sys = analysis::analyze_system(servers);
  EXPECT_GT(sys.temporal.windows, 0u);
  EXPECT_EQ(sys.temporal.total_read + sys.temporal.total_written,
            result.bytes_read + result.bytes_written);
  EXPECT_GT(sys.spatial.servers, 0u);
  EXPECT_GE(sys.spatial.mean_imbalance, 1.0);
}

}  // namespace
}  // namespace pio
