// PIOEval workload: deep-learning training I/O (DLIO-like, §V.B / [80]).
//
// "The DL training phase gives rise to highly random small file accesses
// ... The requirement of randomly shuffled input imposes significant
// pressure to parallel file systems, which are typically designed and
// optimized for large sequential I/O."
//
// The generator models exactly that: a dataset of fixed-size samples packed
// into files; each epoch visits every sample once in a globally shuffled
// order, partitioned across ranks into minibatches; every sample access is
// a small read at a random file offset, followed by a compute step per
// batch. The order depends only on (seed, epoch), so the generator draws
// each epoch's permutation once and builds every rank's ops up front.
#pragma once

#include <memory>

#include "common/types.hpp"
#include "workload/op.hpp"

namespace pio::workload {

struct DlioConfig {
  std::int32_t ranks = 8;
  std::uint64_t samples = 16'384;          ///< dataset size
  Bytes sample_size = Bytes::from_kib(128);
  std::uint64_t samples_per_file = 1024;   ///< dataset sharding
  std::uint64_t batch_size = 32;           ///< per rank
  std::int32_t epochs = 1;
  SimTime compute_per_batch = SimTime::from_ms(50.0);
  bool shuffle = true;                     ///< false = sequential scan (ablation)
  std::uint64_t seed = 42;
  std::string directory = "/dataset";
  /// Emit the dataset-preparation phase (rank 0 writes all shards).
  bool include_preparation = true;
};

/// DLIO-like deep-learning training workload.
[[nodiscard]] std::unique_ptr<Workload> dlio_like(const DlioConfig& config);

/// The number of ops `dlio_like(config)` builds, over all ranks, in closed
/// form: nothing is built. Throws what `dlio_like` throws.
[[nodiscard]] std::uint64_t dlio_op_count(const DlioConfig& config);

}  // namespace pio::workload
