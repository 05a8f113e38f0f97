// Tests for replay-based modeling: trace -> workload conversion, grammar
// compression losslessness, extrapolation, and fidelity scoring.
#include <gtest/gtest.h>

#include "driver/sim_driver.hpp"
#include "replay/compress.hpp"
#include "replay/extrapolate.hpp"
#include "replay/fidelity.hpp"
#include "replay/trace_workload.hpp"
#include "trace/tracer.hpp"
#include "workload/dlio.hpp"
#include "workload/dsl.hpp"
#include "workload/kernels.hpp"

namespace pio::replay {
namespace {

using namespace pio::literals;
using workload::Op;
using workload::OpKind;

pfs::PfsConfig small_pfs() {
  pfs::PfsConfig config;
  config.clients = 8;
  config.io_nodes = 2;
  config.osts = 4;
  config.disk_kind = pfs::DiskKind::kSsd;
  return config;
}

driver::SimRunResult simulate(const workload::Workload& w, trace::Sink* sink = nullptr,
                              std::uint64_t seed = 1) {
  sim::Engine engine{seed};
  pfs::PfsModel model{engine, small_pfs()};
  driver::ExecutionDrivenSimulator sim{engine, model};
  return sim.run(w, sink);
}

TEST(TraceWorkloadTest, RecordedRunReplaysWithSameVolumes) {
  workload::IorConfig config;
  config.ranks = 4;
  config.block_size = 4_MiB;
  config.transfer_size = 1_MiB;
  config.read_phase = true;
  const auto original = workload::ior_like(config);
  trace::Tracer tracer;
  const auto original_result = simulate(*original, &tracer);

  const auto replayed = workload_from_trace(tracer.take());
  const auto replay_result = simulate(*replayed, nullptr, 2);
  const FidelityReport report = compare_runs(original_result, replay_result);
  EXPECT_NEAR(report.bytes_read_ratio, 1.0, 1e-9);
  EXPECT_NEAR(report.bytes_written_ratio, 1.0, 1e-9);
  // Same system model, same ops: makespan within 20%.
  EXPECT_NEAR(report.makespan_ratio, 1.0, 0.2);
  EXPECT_TRUE(report.faithful(0.25)) << report.to_string();
}

TEST(TraceWorkloadTest, ThinkTimePreservationStretchesReplay) {
  // A workload with long compute gaps: replay with think-time preservation
  // must take much longer than replay without.
  workload::CheckpointConfig config;
  config.ranks = 2;
  config.checkpoint_per_rank = 1_MiB;
  config.transfer_size = 1_MiB;
  config.checkpoints = 3;
  config.compute_phase = SimTime::from_sec(2.0);
  const auto original = workload::checkpoint_restart(config);
  trace::Tracer tracer;
  (void)simulate(*original, &tracer);
  const auto trace = tracer.take();

  TraceReplayConfig with_think;
  with_think.preserve_think_time = true;
  TraceReplayConfig without_think;
  without_think.preserve_think_time = false;
  const auto slow = simulate(*workload_from_trace(trace, with_think));
  const auto fast = simulate(*workload_from_trace(trace, without_think));
  EXPECT_GT(slow.makespan.sec(), fast.makespan.sec() + 5.0);
}

TEST(TraceWorkloadTest, FirstOpenBecomesCreate) {
  trace::Trace trace;
  auto event = [&](trace::OpKind op, std::int32_t rank, const std::string& path,
                   std::int64_t at) {
    trace::TraceEvent e;
    e.op = op;
    e.rank = rank;
    e.path = path;
    e.start = SimTime::from_ns(at);
    e.end = SimTime::from_ns(at + 1);
    trace.append(e);
  };
  event(trace::OpKind::kOpen, 0, "/f", 0);
  event(trace::OpKind::kOpen, 1, "/f", 10);
  const auto w = workload_from_trace(trace);
  const auto ops = workload::materialize(*w);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0][0].kind, OpKind::kCreate);
  EXPECT_EQ(ops[1][0].kind, OpKind::kOpen);
}

class CompressionTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressionTest, LosslessRoundTripOnKernels) {
  std::unique_ptr<workload::Workload> w;
  switch (GetParam()) {
    case 0: {
      workload::IorConfig config;
      config.ranks = 4;
      config.block_size = 8_MiB;
      config.transfer_size = 1_MiB;
      config.read_phase = true;
      w = workload::ior_like(config);
      break;
    }
    case 1: {
      workload::MdtestConfig config;
      config.ranks = 2;
      config.files_per_rank = 32;
      w = workload::mdtest_like(config);
      break;
    }
    case 2: {
      workload::DlioConfig config;
      config.ranks = 2;
      config.samples = 128;
      config.samples_per_file = 32;
      w = workload::dlio_like(config);
      break;
    }
    default: {
      workload::BtioConfig config;
      config.ranks = 4;
      config.grid_points = 8;
      w = workload::btio_like(config);
      break;
    }
  }
  const auto compressed = CompressedWorkload::compress(*w);
  const auto restored = compressed.decompress();
  const auto original_ops = workload::materialize(*w);
  const auto restored_ops = workload::materialize(*restored);
  ASSERT_EQ(original_ops.size(), restored_ops.size());
  for (std::size_t r = 0; r < original_ops.size(); ++r) {
    ASSERT_EQ(original_ops[r].size(), restored_ops[r].size()) << "rank " << r;
    for (std::size_t i = 0; i < original_ops[r].size(); ++i) {
      const Op& a = original_ops[r][i];
      const Op& b = restored_ops[r][i];
      ASSERT_EQ(a.kind, b.kind) << r << ":" << i;
      ASSERT_EQ(w->path(a.file), restored->path(b.file)) << r << ":" << i;
      ASSERT_EQ(a.offset, b.offset) << r << ":" << i;
      ASSERT_EQ(a.size, b.size) << r << ":" << i;
      ASSERT_EQ(a.think_time, b.think_time) << r << ":" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, CompressionTest, ::testing::Values(0, 1, 2, 3));

TEST(CompressionTest, RegularPatternsCompressWell) {
  // 1024 sequential 1 MiB writes: delta tokenization makes them one
  // repeated symbol; Re-Pair packs them logarithmically.
  workload::IorConfig config;
  config.ranks = 1;
  config.block_size = 1_GiB;
  config.transfer_size = 1_MiB;
  const auto w = workload::ior_like(config);
  const auto compressed = CompressedWorkload::compress(*w);
  EXPECT_GT(compressed.compression_ratio(), 20.0);
  EXPECT_LT(compressed.distinct_tokens(), 16u);
}

TEST(CompressionTest, RandomPatternsCompressPoorly) {
  workload::DlioConfig config;
  config.ranks = 1;
  config.samples = 1024;
  config.samples_per_file = 1024;
  config.include_preparation = false;
  const auto w = workload::dlio_like(config);
  const auto shuffled = CompressedWorkload::compress(*w);
  config.shuffle = false;
  const auto sequential = CompressedWorkload::compress(*workload::dlio_like(config));
  // Shuffled minibatch reads have high-entropy deltas; sequential scans
  // collapse. The gap is the whole point of the DL-workload discussion.
  EXPECT_GT(sequential.compression_ratio(), shuffled.compression_ratio() * 3.0);
}

TEST(ExtrapolationTest, AffineWorkloadExtrapolates) {
  const auto captured = workload::parse_dsl(R"(
    name "fpp"
    ranks 4
    create "/out/f.{rank}"
    loop i 8 {
      write "/out/f.{rank}" at i * 1MiB size 1MiB
    }
    close "/out/f.{rank}"
  )");
  ExtrapolationError error;
  const auto model = ExtrapolationModel::fit(*captured, &error);
  ASSERT_TRUE(model.has_value()) << error.reason;
  const auto projected = model->generate(16);
  EXPECT_EQ(projected->ranks(), 16);
  const auto ops = workload::materialize(*projected);
  EXPECT_EQ(projected->path(ops[15][0].file), "/out/f.15");
  EXPECT_EQ(ops[15][0].kind, OpKind::kCreate);
  EXPECT_EQ(ops[15][3].offset, (2_MiB).count());
  // Volume scales linearly with rank count.
  const auto fp = workload::footprint(*projected);
  EXPECT_EQ(fp.bytes_written, 16 * 8_MiB);
}

TEST(ExtrapolationTest, SharedOffsetsExtrapolateAffinely) {
  const auto captured = workload::parse_dsl(R"(
    name "shared"
    ranks 4
    open "/shared"
    write "/shared" at rank * 4MiB size 4MiB
    close "/shared"
  )");
  const auto model = ExtrapolationModel::fit(*captured);
  ASSERT_TRUE(model.has_value());
  const auto ops = workload::materialize(*model->generate(8));
  EXPECT_EQ(ops[7][1].offset, (28_MiB).count());
}

TEST(ExtrapolationTest, NonAffinePatternIsDiagnosed) {
  const auto captured = workload::parse_dsl(R"(
    name "quadratic"
    ranks 4
    write "/f" at rank * rank * 1KiB size 1KiB
  )");
  ExtrapolationError error;
  const auto model = ExtrapolationModel::fit(*captured, &error);
  EXPECT_FALSE(model.has_value());
  EXPECT_EQ(error.position, 0u);
  EXPECT_NE(error.reason.find("affine"), std::string::npos);
}

TEST(ExtrapolationTest, AsymmetricStructureIsDiagnosed) {
  std::vector<std::vector<Op>> ops(2);
  PathTable paths;
  ops[0].push_back(Op::barrier());
  ops[1].push_back(Op::barrier());
  ops[1].push_back(Op::stat(paths.intern("/extra")));
  const workload::VectorWorkload w{"asym", std::move(paths), std::move(ops)};
  ExtrapolationError error;
  EXPECT_FALSE(ExtrapolationModel::fit(w, &error).has_value());
  EXPECT_NE(error.reason.find("op count"), std::string::npos);
}

TEST(ExtrapolationTest, ExtrapolatedRunMatchesDirectRunShape) {
  // The C6 loop in miniature: capture at 4 ranks, extrapolate to 8, and
  // compare against a directly generated 8-rank run.
  auto dsl_at = [](int ranks) {
    return workload::parse_dsl("name \"fpp\"\nranks " + std::to_string(ranks) + R"(
      create "/out/f.{rank}"
      loop i 4 {
        write "/out/f.{rank}" at i * 1MiB size 1MiB
      }
      close "/out/f.{rank}"
    )");
  };
  const auto captured = dsl_at(4);
  const auto model = ExtrapolationModel::fit(*captured);
  ASSERT_TRUE(model.has_value());
  const auto projected = model->generate(8);
  const auto direct = dsl_at(8);
  const auto projected_result = simulate(*projected);
  const auto direct_result = simulate(*direct);
  const auto report = compare_runs(direct_result, projected_result);
  EXPECT_NEAR(report.bytes_written_ratio, 1.0, 1e-9);
  EXPECT_NEAR(report.makespan_ratio, 1.0, 0.05) << report.to_string();
}

TEST(FidelityTest, RatiosAndDegenerateCases) {
  driver::SimRunResult a;
  a.ops = 100;
  a.bytes_read = 10_MiB;
  a.bytes_written = 20_MiB;
  a.makespan = 2_s;
  driver::SimRunResult b = a;
  b.ops = 110;
  const auto report = compare_runs(a, b);
  EXPECT_NEAR(report.op_count_ratio, 1.1, 1e-12);
  EXPECT_NEAR(report.makespan_ratio, 1.0, 1e-12);
  EXPECT_FALSE(report.faithful(0.05));
  EXPECT_TRUE(report.faithful(0.11));
  // Zero-volume original: equal-zero replay is "1.0".
  driver::SimRunResult empty_a;
  driver::SimRunResult empty_b;
  EXPECT_NEAR(compare_runs(empty_a, empty_b).bytes_read_ratio, 1.0, 1e-12);
}

TEST(GrammarTest, ExpandReproducesStream) {
  const std::vector<std::uint32_t> stream{0, 1, 0, 1, 0, 1, 2, 0, 1, 0, 1, 2};
  const Grammar grammar = Grammar::compress(stream, 3);
  EXPECT_EQ(grammar.expand(), stream);
  EXPECT_LT(grammar.stored_symbols(), stream.size());
  EXPECT_GT(grammar.rule_count(), 0u);
}

TEST(GrammarTest, IncompressibleStreamSurvives) {
  std::vector<std::uint32_t> stream;
  for (std::uint32_t i = 0; i < 64; ++i) stream.push_back(i);
  const Grammar grammar = Grammar::compress(stream, 64);
  EXPECT_EQ(grammar.expand(), stream);
  EXPECT_EQ(grammar.rule_count(), 0u);
}

}  // namespace
}  // namespace pio::replay
