// C4 — Neural networks predict I/O time better than linear models
// (Schmid & Kunkel [56], §IV.B.2).
//
// Paper: "use neural networks to analyze and predict file access times of a
// Lustre file system from the client's perspective, and show that the
// average prediction error can be significantly improved in comparison to
// linear models."
//
// We sample hundreds of single-client access patterns (request size x
// randomness x op count), measure each on the HDD-backed storage model,
// and train three predictors on the resulting (features -> I/O time)
// dataset. Expected shape: NN and random forest clearly below the linear
// baseline, because seek costs make the surface strongly nonlinear.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "predict/evaluate.hpp"
#include "predict/forest.hpp"
#include "predict/nn.hpp"
#include "stats/regression.hpp"
#include "workload/op.hpp"

using namespace pio;
using namespace pio::literals;

namespace {

/// One sampled access pattern executed on the model: `ops` requests of
/// `size` bytes; a fraction `randomness` jump to random offsets, the rest
/// continue sequentially.
std::unique_ptr<workload::Workload> access_pattern(std::uint64_t size, double randomness,
                                                   std::uint64_t ops, std::uint64_t seed) {
  Rng rng{seed, 0xACCE55};
  const std::uint64_t extent = 1ULL << 30;  // 1 GiB file
  PathTable paths;
  const FileId data = paths.intern("/data");
  std::vector<workload::Op> sequence;
  sequence.push_back(workload::Op::create(data));
  // Pre-populate so reads hit real extents.
  sequence.push_back(workload::Op::write(data, 0, Bytes{extent / 64}));
  std::uint64_t cursor = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t offset = rng.chance(randomness)
                                     ? rng.next_below(extent - size)
                                     : cursor % (extent - size);
    sequence.push_back(workload::Op::read(data, offset, Bytes{size}));
    cursor = offset + size;
  }
  sequence.push_back(workload::Op::close(data));
  return std::make_unique<workload::VectorWorkload>(
      "pattern", std::move(paths), std::vector<std::vector<workload::Op>>{std::move(sequence)});
}

}  // namespace

int main() {
  bench::banner("C4", "NN vs linear model on file access time prediction (Schmid & Kunkel)");
  const auto system = bench::reference_testbed(pfs::DiskKind::kHdd);
  Rng rng{99, 0};
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  constexpr int kSamples = 240;
  for (int i = 0; i < kSamples; ++i) {
    const double log_size = rng.uniform(12.0, 23.0);  // 4 KiB .. 8 MiB
    const auto size = static_cast<std::uint64_t>(std::exp2(log_size));
    const double randomness = rng.uniform(0.0, 1.0);
    const std::uint64_t ops = 16 + rng.next_below(48);
    const auto w = access_pattern(size, randomness, ops, 1000 + static_cast<std::uint64_t>(i));
    const auto result = bench::simulate(system, *w, nullptr, 7);
    features.push_back({log_size, randomness, static_cast<double>(ops)});
    targets.push_back(result.read_time.sec());
  }

  const auto split = predict::train_test_split(features, targets, 0.25, 5);

  const auto linear = stats::LinearModel::fit(split.train_x, split.train_y);
  std::vector<double> linear_pred;
  for (const auto& row : split.test_x) linear_pred.push_back(linear.predict(row));
  const auto linear_err = stats::compute_errors(linear_pred, split.test_y);

  predict::NnConfig nn_config;
  nn_config.epochs = 400;
  const auto net = predict::NeuralNet::fit(split.train_x, split.train_y, nn_config);
  const auto nn_err = stats::compute_errors(net.predict_all(split.test_x), split.test_y);

  const auto forest = predict::RandomForest::fit(split.train_x, split.train_y);
  const auto rf_err = stats::compute_errors(forest.predict_all(split.test_x), split.test_y);

  TextTable table{{"model", "test MAPE", "test RMSE (s)", "test MAE (s)"}};
  auto add = [&](const std::string& name, const stats::ErrorMetrics& m) {
    table.add_row({name, format_percent(m.mape), format_double(m.rmse, 4),
                   format_double(m.mae, 4)});
    bench::emit_row(
        Record{{"model", name}, {"mape", m.mape}, {"rmse", m.rmse}, {"mae", m.mae}});
  };
  add("linear regression", linear_err);
  add("neural network", nn_err);
  add("random forest", rf_err);
  std::cout << table.to_string();
  std::cout << "\n(training set " << split.train_x.size() << " runs, test set "
            << split.test_x.size() << " runs; features: log2(size), randomness, op count)\n";
  const bool shape_holds = nn_err.mape < linear_err.mape && rf_err.mape < linear_err.mape;
  std::cout << "shape check: nonlinear models beat the linear baseline: "
            << (shape_holds ? "HOLDS" : "VIOLATED") << "\n";
  return shape_holds ? 0 : 1;
}
