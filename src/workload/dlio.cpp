#include "workload/dlio.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace pio::workload {

namespace {

void check(const DlioConfig& config) {
  if (config.ranks <= 0) throw std::invalid_argument("dlio_like: ranks must be positive");
  if (config.samples == 0 || config.samples_per_file == 0 || config.batch_size == 0) {
    throw std::invalid_argument("dlio_like: samples, samples_per_file, batch_size must be > 0");
  }
}

std::uint64_t shard_count(const DlioConfig& config) {
  return config.samples / config.samples_per_file +
         (config.samples % config.samples_per_file != 0);
}

std::uint64_t epoch_count(const DlioConfig& config) {
  return static_cast<std::uint64_t>(std::max(config.epochs, 0));
}

/// Rank 0's dataset preparation: mkdir, then create, write, close per shard.
std::uint64_t preparation_ops(const DlioConfig& config, std::uint64_t shards) {
  return config.include_preparation ? 1 + 3 * shards : 0;
}

/// A rank that reads `share` samples an epoch: a barrier and an open per
/// shard, per epoch its reads, a compute between full batches and a
/// barrier, then a close per shard.
std::uint64_t rank_ops(const DlioConfig& config, std::uint64_t shards, std::uint64_t share) {
  const std::uint64_t computes = share == 0 ? 0 : (share - 1) / config.batch_size;
  return 1 + 2 * shards + epoch_count(config) * (share + computes + 1);
}

}  // namespace

std::uint64_t dlio_op_count(const DlioConfig& config) {
  check(config);
  // Sample i goes to rank i % ranks, so the first `samples % ranks` ranks
  // read one sample more than the others.
  const std::uint64_t shards = shard_count(config);
  const auto ranks = static_cast<std::uint64_t>(config.ranks);
  const std::uint64_t share = config.samples / ranks;
  const std::uint64_t longer = config.samples % ranks;
  return preparation_ops(config, shards) + longer * rank_ops(config, shards, share + 1) +
         (ranks - longer) * rank_ops(config, shards, share);
}

std::unique_ptr<Workload> dlio_like(const DlioConfig& config) {
  check(config);
  const std::uint64_t shards = shard_count(config);
  const auto ranks = static_cast<std::uint64_t>(config.ranks);
  const std::uint64_t epochs = epoch_count(config);

  // Shard i is file `directory + 1 + i` of the path table.
  PathTable paths;
  const FileId directory = paths.intern(config.directory);
  for (std::uint64_t i = 0; i < shards; ++i) {
    paths.intern(config.directory + "/shard" + std::to_string(i) + ".data");
  }
  const auto shard_file = [&](std::uint64_t shard) {
    return directory + 1 + static_cast<FileId>(shard);
  };

  std::vector<std::vector<Op>> per_rank(ranks);
  for (std::uint64_t r = 0; r < ranks; ++r) {
    const std::uint64_t share = config.samples / ranks + (r < config.samples % ranks);
    per_rank[r].reserve((r == 0 ? preparation_ops(config, shards) : 0) +
                        rank_ops(config, shards, share));
  }

  // Dataset preparation: rank 0 writes every shard.
  if (config.include_preparation) {
    std::vector<Op>& ops = per_rank[0];
    ops.push_back(Op::mkdir(directory));
    for (std::uint64_t shard = 0; shard < shards; ++shard) {
      const std::uint64_t samples_in_shard = std::min(
          config.samples_per_file, config.samples - shard * config.samples_per_file);
      ops.push_back(Op::create(shard_file(shard)));
      ops.push_back(Op::write(shard_file(shard), 0,
                              Bytes{samples_in_shard * config.sample_size.count()}));
      ops.push_back(Op::close(shard_file(shard)));
    }
  }
  // Every rank opens all shards once (the framework's file handles).
  for (std::vector<Op>& ops : per_rank) {
    ops.push_back(Op::barrier());
    for (std::uint64_t shard = 0; shard < shards; ++shard) {
      ops.push_back(Op::open(shard_file(shard)));
    }
  }

  // Each epoch draws one global order from (seed, epoch); each rank takes a
  // strided slice (sample i goes to rank i % ranks), which is how
  // distributed samplers shard a common permutation. A compute step follows
  // every full batch that has another read after it, and a barrier closes
  // the epoch.
  std::vector<std::uint64_t> order(config.samples);
  for (std::uint64_t epoch = 0; epoch < epochs; ++epoch) {
    std::iota(order.begin(), order.end(), std::uint64_t{0});
    if (config.shuffle) {
      Rng rng{config.seed, std::uint64_t{0xD110} + epoch};
      rng.shuffle(order);
    }
    for (std::uint64_t r = 0; r < ranks; ++r) {
      std::vector<Op>& ops = per_rank[r];
      std::uint64_t in_batch = 0;
      for (std::uint64_t i = r; i < config.samples; i += ranks) {
        if (in_batch == config.batch_size) {
          ops.push_back(Op::compute(config.compute_per_batch));
          in_batch = 0;
        }
        ++in_batch;
        const std::uint64_t sample = order[i];
        ops.push_back(Op::read(shard_file(sample / config.samples_per_file),
                               sample % config.samples_per_file * config.sample_size.count(),
                               config.sample_size));
      }
      ops.push_back(Op::barrier());
    }
  }

  for (std::vector<Op>& ops : per_rank) {
    for (std::uint64_t shard = 0; shard < shards; ++shard) {
      ops.push_back(Op::close(shard_file(shard)));
    }
  }
  return std::make_unique<Workload>("dlio", std::move(paths), std::move(per_rank));
}

}  // namespace pio::workload
