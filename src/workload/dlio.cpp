#include "workload/dlio.hpp"

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace pio::workload {

namespace {

/// Lazy per-rank stream over shuffled epochs. The shuffled order is derived
/// deterministically from (seed, epoch), so every rank — and every re-stream
/// of the same workload — sees the same global order.
class DlioStream final : public RankStream {
 public:
  /// Shard i is file `directory + 1 + i` of the workload's path table.
  DlioStream(const DlioConfig& config, FileId directory, std::int32_t rank)
      : config_(config), directory_(directory), rank_(rank) {}

  std::optional<Op> next() override {
    for (;;) {
      switch (phase_) {
        case Phase::kPrep: {
          if (!config_.include_preparation || rank_ != 0) {
            phase_ = Phase::kPrepBarrier;
            continue;
          }
          const std::uint64_t shards = shard_count();
          // Sub-steps per shard: mkdir (once), create, write, close.
          if (prep_step_ == 0) {
            ++prep_step_;
            return Op::mkdir(directory_);
          }
          const std::uint64_t shard = (prep_step_ - 1) / 3;
          const std::uint64_t sub = (prep_step_ - 1) % 3;
          if (shard >= shards) {
            phase_ = Phase::kPrepBarrier;
            continue;
          }
          ++prep_step_;
          const FileId path = shard_file(shard);
          if (sub == 0) return Op::create(path);
          if (sub == 1) {
            return Op::write(path, 0, Bytes{samples_in_shard(shard) * config_.sample_size.count()});
          }
          return Op::close(path);
        }
        case Phase::kPrepBarrier:
          phase_ = Phase::kOpenShards;
          return Op::barrier();
        case Phase::kOpenShards: {
          // Every rank opens all shards once (the framework's file handles).
          if (open_index_ >= shard_count()) {
            phase_ = Phase::kTrain;
            begin_epoch();
            continue;
          }
          return Op::open(shard_file(open_index_++));
        }
        case Phase::kTrain: {
          if (epoch_ >= config_.epochs) {
            phase_ = Phase::kCloseShards;
            continue;
          }
          if (cursor_ >= my_samples_.size()) {
            // End of this rank's epoch portion.
            ++epoch_;
            if (epoch_ >= config_.epochs) {
              phase_ = Phase::kEpochBarrier;
              continue;
            }
            begin_epoch();
            phase_ = Phase::kEpochBarrier;
            continue;
          }
          // Emit compute after each full batch.
          if (in_batch_ == config_.batch_size) {
            in_batch_ = 0;
            return Op::compute(config_.compute_per_batch);
          }
          const std::uint64_t sample = my_samples_[cursor_++];
          ++in_batch_;
          const std::uint64_t shard = sample / config_.samples_per_file;
          const std::uint64_t within = sample % config_.samples_per_file;
          return Op::read(shard_file(shard), within * config_.sample_size.count(),
                          config_.sample_size);
        }
        case Phase::kEpochBarrier:
          phase_ = epoch_ >= config_.epochs ? Phase::kCloseShards : Phase::kTrain;
          return Op::barrier();
        case Phase::kCloseShards: {
          if (close_index_ >= shard_count()) {
            phase_ = Phase::kDone;
            continue;
          }
          return Op::close(shard_file(close_index_++));
        }
        case Phase::kDone:
          return std::nullopt;
      }
    }
  }

 private:
  enum class Phase {
    kPrep,
    kPrepBarrier,
    kOpenShards,
    kTrain,
    kEpochBarrier,
    kCloseShards,
    kDone
  };

  [[nodiscard]] FileId shard_file(std::uint64_t shard) const {
    return directory_ + 1 + static_cast<FileId>(shard);
  }

  [[nodiscard]] std::uint64_t shard_count() const {
    return (config_.samples + config_.samples_per_file - 1) / config_.samples_per_file;
  }

  [[nodiscard]] std::uint64_t samples_in_shard(std::uint64_t shard) const {
    const std::uint64_t start = shard * config_.samples_per_file;
    return std::min(config_.samples_per_file, config_.samples - start);
  }

  void begin_epoch() {
    // Global shuffled order for this epoch, identical on every rank; each
    // rank takes a strided slice (sample i goes to rank i % ranks), which is
    // how distributed samplers shard a common permutation.
    std::vector<std::uint64_t> order(config_.samples);
    for (std::uint64_t i = 0; i < config_.samples; ++i) order[i] = i;
    if (config_.shuffle) {
      Rng rng{config_.seed, std::uint64_t{0xD110} + static_cast<std::uint64_t>(epoch_)};
      rng.shuffle(order);
    }
    my_samples_.clear();
    for (std::uint64_t i = static_cast<std::uint64_t>(rank_); i < order.size();
         i += static_cast<std::uint64_t>(config_.ranks)) {
      my_samples_.push_back(order[i]);
    }
    cursor_ = 0;
    in_batch_ = 0;
  }

  DlioConfig config_;
  FileId directory_;
  std::int32_t rank_;
  Phase phase_ = Phase::kPrep;
  std::uint64_t prep_step_ = 0;
  std::uint64_t open_index_ = 0;
  std::uint64_t close_index_ = 0;
  std::int32_t epoch_ = 0;
  std::vector<std::uint64_t> my_samples_;
  std::size_t cursor_ = 0;
  std::uint64_t in_batch_ = 0;
};

class DlioWorkload final : public Workload {
 public:
  explicit DlioWorkload(const DlioConfig& config) : config_(config) {
    if (config.ranks <= 0) throw std::invalid_argument("dlio_like: ranks must be positive");
    if (config.samples == 0 || config.samples_per_file == 0 || config.batch_size == 0) {
      throw std::invalid_argument("dlio_like: samples, samples_per_file, batch_size must be > 0");
    }
    directory_ = paths_.intern(config.directory);
    for (std::uint64_t i = 0; i * config.samples_per_file < config.samples; ++i) {
      paths_.intern(config.directory + "/shard" + std::to_string(i) + ".data");
    }
  }

  [[nodiscard]] std::string name() const override { return "dlio"; }
  [[nodiscard]] std::int32_t ranks() const override { return config_.ranks; }
  [[nodiscard]] std::unique_ptr<RankStream> stream(std::int32_t rank) const override {
    return std::make_unique<DlioStream>(config_, directory_, rank);
  }
  [[nodiscard]] const PathTable& paths() const override { return paths_; }

 private:
  DlioConfig config_;
  PathTable paths_;
  FileId directory_ = 0;
};

}  // namespace

std::unique_ptr<Workload> dlio_like(const DlioConfig& config) {
  return std::make_unique<DlioWorkload>(config);
}

}  // namespace pio::workload
