// Tests for the Omnisc'IO-style next-op predictor and the fabric model
// (grouped: both are small, structural modules).
#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "predict/omnisio.hpp"
#include "sim/engine.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"

namespace pio {
namespace {

using namespace pio::literals;
using workload::Op;

// The files the predictor tests name (ids in a workload's path table).
constexpr FileId kF = 1;
constexpr FileId kX = 2;

TEST(NextOpPredictorTest, LearnsASimpleLoop) {
  predict::NextOpPredictor predictor;
  // A perfectly regular stream: write, write, fsync, repeated.
  std::uint64_t offset = 0;
  int late_hits = 0;
  int late_total = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    const bool warm = cycle >= 10;
    for (int i = 0; i < 2; ++i) {
      const bool hit = predictor.observe(Op::write(kF, offset, 1_MiB));
      offset += (1_MiB).count();
      if (warm) {
        ++late_total;
        late_hits += hit ? 1 : 0;
      }
    }
    const bool hit = predictor.observe(Op::fsync(kF));
    if (warm) {
      ++late_total;
      late_hits += hit ? 1 : 0;
    }
  }
  // After warm-up, the alternating pattern is fully predictable.
  EXPECT_EQ(late_hits, late_total);
  EXPECT_GT(predictor.accuracy(), 0.8);
  EXPECT_LE(predictor.alphabet_size(), 4u);
}

TEST(NextOpPredictorTest, PredictsResolvedNextOp) {
  predict::NextOpPredictor predictor;
  for (int i = 0; i < 20; ++i) {
    (void)predictor.observe(Op::write(kF, static_cast<std::uint64_t>(i) << 20, 1_MiB));
  }
  const auto next = predictor.predict_next();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->kind, workload::OpKind::kWrite);
  EXPECT_EQ(next->file, kF);
  EXPECT_EQ(next->size, 1_MiB);
  // The predicted offset continues the sequential cursor.
  EXPECT_EQ(next->offset, 20ull << 20);
}

TEST(NextOpPredictorTest, NoPredictionBeforeData) {
  predict::NextOpPredictor predictor;
  EXPECT_FALSE(predictor.predict_next().has_value());
  EXPECT_FALSE(predictor.observe(Op::stat(kX)));  // first op: no prediction
  EXPECT_EQ(predictor.accuracy(), 0.0);
}

TEST(PredictabilityTest, RegularKernelsBeatShuffledDl) {
  workload::IorConfig ior;
  ior.ranks = 2;
  ior.block_size = 64_MiB;
  ior.transfer_size = 1_MiB;
  ior.read_phase = true;
  const auto ior_traj = predict::evaluate_predictability(*workload::ior_like(ior), 0);

  workload::DlioConfig dl;
  dl.ranks = 2;
  dl.samples = 2048;
  dl.samples_per_file = 2048;
  dl.include_preparation = false;
  const auto dl_traj = predict::evaluate_predictability(*workload::dlio_like(dl), 0);

  // The paper's §V/§VI point in one inequality: structured HPC I/O is
  // highly predictable; shuffled DL input is not.
  EXPECT_GT(ior_traj.overall_accuracy, 0.9);
  EXPECT_LT(dl_traj.overall_accuracy, 0.5);
  EXPECT_GT(ior_traj.overall_accuracy, dl_traj.overall_accuracy + 0.4);
  // And DL's alphabet (distinct behaviours) is far larger.
  EXPECT_GT(dl_traj.alphabet_size, ior_traj.alphabet_size * 10);
}

TEST(PredictabilityTest, AccuracyImprovesOverWindows) {
  workload::CheckpointConfig ckpt;
  ckpt.ranks = 1;
  ckpt.checkpoint_per_rank = 32_MiB;
  ckpt.transfer_size = 1_MiB;
  ckpt.checkpoints = 8;
  const auto traj =
      predict::evaluate_predictability(*workload::checkpoint_restart(ckpt), 0, 32);
  ASSERT_GE(traj.per_window_accuracy.size(), 3u);
  // Later windows (pattern learned) beat the first window (cold start).
  // Each checkpoint cycle still introduces brand-new file names, whose
  // create ops are inherently unpredictable, so the ceiling is below 1.0.
  EXPECT_GT(traj.per_window_accuracy.back(), traj.per_window_accuracy.front());
  EXPECT_GT(traj.per_window_accuracy.back(), 0.85);
}

TEST(PredictabilityTest, ArgumentValidation) {
  workload::IorConfig ior;
  ior.ranks = 2;
  const auto w = workload::ior_like(ior);
  EXPECT_THROW((void)predict::evaluate_predictability(*w, 5), std::invalid_argument);
  EXPECT_THROW((void)predict::evaluate_predictability(*w, 0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------- fabric

TEST(FabricTest, LatencyFloorForTinyMessages) {
  sim::Engine engine;
  net::FabricConfig config;
  config.endpoint_latency = 2_us;
  config.core_latency = 3_us;
  net::Fabric fabric{engine, config, 4};
  SimTime delivered = SimTime::zero();
  fabric.send(0, 1, Bytes::zero(), [&] { delivered = engine.now(); });
  engine.run();
  EXPECT_EQ(delivered, fabric.base_latency());
  EXPECT_EQ(delivered, 7_us);
}

TEST(FabricTest, EndpointLinkBoundsSingleFlow) {
  sim::Engine engine;
  net::FabricConfig config;
  config.endpoint_bandwidth = Bandwidth::from_mib_per_sec(100.0);
  config.endpoint_latency = SimTime::zero();
  config.core_latency = SimTime::zero();
  config.core_links = 8.0;
  net::Fabric fabric{engine, config, 4};
  SimTime delivered = SimTime::zero();
  fabric.send(0, 1, 100_MiB, [&] { delivered = engine.now(); });
  engine.run();
  // Three store-and-forward stages at >= link rate: between 1x and 3x the
  // single-link serialization time.
  EXPECT_GE(delivered.sec(), 1.0);
  EXPECT_LE(delivered.sec(), 3.1);
  EXPECT_EQ(fabric.stats().messages, 1u);
  EXPECT_EQ(fabric.stats().bytes, 100_MiB);
}

TEST(FabricTest, OversubscribedCoreThrottlesManySenders) {
  auto run_with_core = [](double core_links) {
    sim::Engine engine;
    net::FabricConfig config;
    config.endpoint_bandwidth = Bandwidth::from_mib_per_sec(100.0);
    config.endpoint_latency = SimTime::zero();
    config.core_latency = SimTime::zero();
    config.core_links = core_links;
    net::Fabric fabric{engine, config, 16};
    // 8 senders to 8 distinct receivers: endpoint links are not shared,
    // only the core is.
    int done = 0;
    for (net::EndpointId s = 0; s < 8; ++s) {
      fabric.send(s, static_cast<net::EndpointId>(8 + s), 100_MiB, [&] { ++done; });
    }
    engine.run();
    EXPECT_EQ(done, 8);
    return engine.now().sec();
  };
  const double full = run_with_core(8.0);   // core matches aggregate demand
  const double tapered = run_with_core(2.0);  // 4x oversubscribed
  // Store-and-forward pipeline: only the core stage stretches (1 s -> 4 s
  // of a 3-stage, ~3 s pipeline), so ~2x end to end.
  EXPECT_GT(tapered, full * 1.8);
}

TEST(FabricTest, BadEndpointThrows) {
  sim::Engine engine;
  net::Fabric fabric{engine, net::FabricConfig{}, 2};
  EXPECT_THROW(fabric.send(0, 9, Bytes{1}, [] {}), std::out_of_range);
  EXPECT_THROW(net::Fabric(engine, net::FabricConfig{}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace pio
