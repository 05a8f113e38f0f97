// Integration tests for the simulation drivers and the measured-execution
// path: workloads land on the PFS model / VFS with correct accounting.
#include <gtest/gtest.h>

#include "driver/measured_runner.hpp"
#include "driver/sim_driver.hpp"
#include "trace/profiler.hpp"
#include "trace/tracer.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"

namespace pio::driver {
namespace {

using namespace pio::literals;

pfs::PfsConfig small_pfs() {
  pfs::PfsConfig config;
  config.clients = 8;
  config.io_nodes = 2;
  config.osts = 4;
  config.disk_kind = pfs::DiskKind::kSsd;
  return config;
}

TEST(ExecutionDrivenTest, IorRunsToCompletionWithFullAccounting) {
  sim::Engine engine;
  pfs::PfsModel model{engine, small_pfs()};
  ExecutionDrivenSimulator sim{engine, model};
  workload::IorConfig config;
  config.ranks = 4;
  config.block_size = 4_MiB;
  config.transfer_size = 1_MiB;
  const auto result = sim.run(*workload::ior_like(config));
  EXPECT_EQ(result.bytes_written, 16_MiB);
  EXPECT_EQ(result.failed_ops, 0u);
  EXPECT_GT(result.makespan, SimTime::zero());
  ASSERT_EQ(result.rank_finish.size(), 4u);
  for (const auto t : result.rank_finish) EXPECT_GT(t, SimTime::zero());
  // Bytes landed on the OSTs.
  Bytes on_osts = Bytes::zero();
  for (std::uint32_t i = 0; i < model.ost_count(); ++i) {
    on_osts += model.ost(i).stats().bytes_written;
  }
  EXPECT_EQ(on_osts, 16_MiB);
}

TEST(ExecutionDrivenTest, EmitsTraceWithVirtualTimestamps) {
  sim::Engine engine;
  pfs::PfsModel model{engine, small_pfs()};
  ExecutionDrivenSimulator sim{engine, model};
  trace::Tracer tracer;
  workload::IorConfig config;
  config.ranks = 2;
  config.block_size = 2_MiB;
  config.transfer_size = 1_MiB;
  const auto result = sim.run(*workload::ior_like(config), &tracer);
  const auto trace = tracer.snapshot();
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(trace.bytes_written(), 4_MiB);
  // Trace timestamps live on the simulated clock, bounded by the makespan.
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.end, e.start);
    EXPECT_LE(e.end.ns(), result.makespan.ns());
  }
}

TEST(ExecutionDrivenTest, ComputePhasesExtendMakespan) {
  auto run_with_compute = [](SimTime compute) {
    sim::Engine engine;
    pfs::PfsModel model{engine, small_pfs()};
    ExecutionDrivenSimulator sim{engine, model};
    workload::CheckpointConfig config;
    config.ranks = 2;
    config.checkpoint_per_rank = 1_MiB;
    config.transfer_size = 1_MiB;
    config.checkpoints = 2;
    config.compute_phase = compute;
    return sim.run(*workload::checkpoint_restart(config)).makespan;
  };
  const SimTime fast = run_with_compute(SimTime::zero());
  const SimTime slow = run_with_compute(1_s);
  // Two checkpoints of 1 s compute each.
  EXPECT_GT(slow - fast, SimTime::from_sec(1.9));
}

TEST(ExecutionDrivenTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine engine{99};
    pfs::PfsModel model{engine, small_pfs()};
    ExecutionDrivenSimulator sim{engine, model};
    workload::DlioConfig config;
    config.ranks = 4;
    config.samples = 64;
    config.samples_per_file = 16;
    config.sample_size = 64_KiB;
    config.compute_per_batch = SimTime::zero();
    return sim.run(*workload::dlio_like(config)).makespan.ns();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ExecutionDrivenTest, MoreRanksThanClientsAreMultiplexed) {
  sim::Engine engine;
  auto pfs_config = small_pfs();
  pfs_config.clients = 2;
  pfs::PfsModel model{engine, pfs_config};
  ExecutionDrivenSimulator sim{engine, model};
  workload::IorConfig config;
  config.ranks = 8;  // 4 ranks per client endpoint
  config.block_size = 1_MiB;
  config.transfer_size = 1_MiB;
  const auto result = sim.run(*workload::ior_like(config));
  EXPECT_EQ(result.bytes_written, 8_MiB);
  EXPECT_EQ(result.failed_ops, 0u);
}

TEST(ExecutionDrivenTest, MismatchedBarriersAreDiagnosed) {
  // Rank 0 hits a barrier; rank 1 exits immediately. The shrinking-
  // communicator rule releases rank 0 instead of deadlocking.
  std::vector<std::vector<workload::Op>> ops(2);
  ops[0].push_back(workload::Op::barrier());
  ops[0].push_back(workload::Op::compute(1_ms));
  const workload::Workload w{"asym", {}, std::move(ops)};
  sim::Engine engine;
  pfs::PfsModel model{engine, small_pfs()};
  ExecutionDrivenSimulator sim{engine, model};
  const auto result = sim.run(w);
  EXPECT_EQ(result.ops, 2u);
}

TEST(ExecutionDrivenTest, MetadataWorkloadHitsTheMds) {
  sim::Engine engine;
  pfs::PfsModel model{engine, small_pfs()};
  ExecutionDrivenSimulator sim{engine, model};
  workload::MdtestConfig config;
  config.ranks = 4;
  config.files_per_rank = 8;
  const auto result = sim.run(*workload::mdtest_like(config));
  EXPECT_EQ(result.failed_ops, 0u);
  EXPECT_GT(model.mds().stats().ops_total, 4u * 8u * 3u);
  // All files were unlinked again: only the directories remain.
  EXPECT_EQ(model.mds().namespace_size(), 1u /*root*/ + 1u /*base*/ + 4u /*rank dirs*/);
}

TEST(MeasuredRunnerTest, WritesRealBytesAndTraces) {
  vfs::FileSystem fs;
  trace::Profiler profiler;
  workload::IorConfig config;
  config.ranks = 4;
  config.block_size = 1_MiB;
  config.transfer_size = 256_KiB;
  config.read_phase = true;
  const auto result = run_measured(fs, *workload::ior_like(config), &profiler);
  EXPECT_EQ(result.failed_ops, 0u);
  EXPECT_EQ(result.bytes_written, 4_MiB);
  EXPECT_EQ(result.bytes_read, 4_MiB);
  EXPECT_GT(result.wall_time, SimTime::zero());
  // The shared file really exists with the full size.
  EXPECT_EQ(fs.stat("/ior/testfile").value().size, 4_MiB);
  // The profiler observed the same volumes.
  const auto summary = profiler.snapshot().summarize();
  EXPECT_EQ(summary.bytes_written, 4_MiB);
  EXPECT_EQ(summary.bytes_read, 4_MiB);
  EXPECT_EQ(summary.ranks, 4u);
}

TEST(MeasuredRunnerTest, WrittenDataIsTheDeterministicPattern) {
  vfs::FileSystem fs;
  workload::IorConfig config;
  config.ranks = 1;
  config.block_size = 64_KiB;
  config.transfer_size = 64_KiB;
  (void)run_measured(fs, *workload::ior_like(config), nullptr);
  std::vector<std::byte> out(64 * 1024);
  ASSERT_TRUE(fs.pread("/ior/testfile", out, 0).ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<std::byte>(i & 0xFF)) << "at " << i;
  }
}

TEST(MeasuredRunnerTest, MdtestLeavesCleanNamespace) {
  vfs::FileSystem fs;
  workload::MdtestConfig config;
  config.ranks = 4;
  config.files_per_rank = 16;
  const auto result = run_measured(fs, *workload::mdtest_like(config), nullptr);
  EXPECT_EQ(result.failed_ops, 0u);
  EXPECT_EQ(fs.file_count(), 0u);  // everything unlinked again
}

TEST(MeasuredRunnerTest, TraceTimesAreMonotonePerRank) {
  vfs::FileSystem fs;
  trace::Tracer tracer;
  workload::MdtestConfig config;
  config.ranks = 2;
  config.files_per_rank = 8;
  (void)run_measured(fs, *workload::mdtest_like(config), &tracer);
  const auto trace = tracer.snapshot();
  for (const auto rank : trace.ranks()) {
    const auto rank_trace = trace.rank(rank);
    for (std::size_t i = 1; i < rank_trace.size(); ++i) {
      EXPECT_GE(rank_trace.events()[i].start, rank_trace.events()[i - 1].start);
    }
  }
}

}  // namespace
}  // namespace pio::driver
