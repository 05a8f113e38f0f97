#include "workload/from_profile.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace pio::workload {

namespace {

/// Draw an access size from a log2 histogram: pick a bucket proportionally
/// to its count, then uniform within [2^k, 2^(k+1)).
std::uint64_t sample_size(const Log2Histogram& hist, Rng& rng) {
  const std::uint64_t total = hist.total();
  if (total == 0) return 0;
  std::uint64_t pick = rng.next_below(total);
  for (std::size_t k = 0; k < Log2Histogram::kBuckets; ++k) {
    const std::uint64_t count = hist.bucket_count(k);
    if (pick < count) {
      const std::uint64_t lo = k == 0 ? 0 : (1ULL << k);
      const std::uint64_t hi = (k >= 63) ? UINT64_MAX : (1ULL << (k + 1));
      return lo + rng.next_below(std::max<std::uint64_t>(1, hi - lo));
    }
    pick -= count;
  }
  return hist.max();
}

/// Every proper ancestor directory of the profiled paths (the root aside),
/// each once. A set orders a path before its extensions, so every parent
/// comes before its children.
std::set<std::string> ancestor_directories(const trace::Profile& profile) {
  std::set<std::string> dirs;
  for (const auto& record : profile.records()) {
    const std::string& path = record.path;
    for (std::size_t slash = path.find('/', 1); slash != std::string::npos;
         slash = path.find('/', slash + 1)) {
      dirs.insert(path.substr(0, slash));
    }
  }
  return dirs;
}

}  // namespace

std::unique_ptr<Workload> workload_from_profile(const trace::Profile& profile,
                                                const FromProfileConfig& config) {
  // Group records by rank; ranks are renumbered densely.
  std::map<std::int32_t, std::vector<const trace::FileRecord*>> by_rank;
  for (const auto& record : profile.records()) by_rank[record.rank].push_back(&record);

  std::vector<std::vector<Op>> per_rank;
  per_rank.reserve(by_rank.size());
  PathTable paths;
  // A profile keeps no directory creations (a mkdir record replays as an
  // open and a stat below), so rank 0 first recreates the directories the
  // profiled files live in, parents first, and every rank waits for it at
  // one barrier.
  const std::set<std::string> dirs = ancestor_directories(profile);
  std::uint64_t stream_id = 0;
  for (const auto& [rank, records] : by_rank) {
    std::vector<Op> ops;
    if (!dirs.empty()) {
      if (per_rank.empty()) {
        for (const std::string& dir : dirs) ops.push_back(Op::mkdir(paths.intern(dir)));
      }
      ops.push_back(Op::barrier());
    }
    Rng rng{config.seed, 0xC4A7ULL + stream_id++};
    for (const auto* record : records) {
      if (record->path.empty()) continue;
      const FileId file = paths.intern(record->path);
      // Recreate the file if it was written; open if it was only read.
      const bool writes_first = record->writes > 0;
      ops.push_back(writes_first ? Op::create(file) : Op::open(file));
      const std::uint64_t extent =
          std::max<std::uint64_t>(record->max_offset, 1);

      auto emit_phase = [&](bool is_write) {
        const std::uint64_t count = is_write ? record->writes : record->reads;
        const auto& hist = is_write ? record->write_sizes : record->read_sizes;
        const double seq_fraction =
            is_write ? record->write_seq_fraction() : record->read_seq_fraction();
        std::uint64_t n = count;
        if (config.max_ops_per_record != 0) n = std::min(n, config.max_ops_per_record);
        std::uint64_t cursor = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::uint64_t size = std::max<std::uint64_t>(1, sample_size(hist, rng));
          std::uint64_t offset;
          if (rng.chance(seq_fraction) || extent <= size) {
            offset = cursor;  // continue sequentially
          } else {
            offset = rng.next_below(extent - size + 1);  // random re-position
          }
          ops.push_back(is_write ? Op::write(file, offset, Bytes{size})
                                 : Op::read(file, offset, Bytes{size}));
          cursor = offset + size;
        }
      };

      // Write phase before read phase: the dominant ordering in HPC jobs
      // (outputs are produced, then verified/consumed).
      emit_phase(/*is_write=*/true);
      emit_phase(/*is_write=*/false);
      ops.push_back(Op::close(file));
      // Metadata ops beyond open/close are replayed as stats (the profile
      // does not retain their exact kinds).
      const std::uint64_t open_close =
          std::min<std::uint64_t>(record->metadata_ops, record->opens + record->closes);
      for (std::uint64_t m = open_close; m < record->metadata_ops; ++m) {
        ops.push_back(Op::stat(file));
      }
    }
    per_rank.push_back(std::move(ops));
  }
  if (per_rank.empty()) per_rank.emplace_back();
  return std::make_unique<Workload>("from-profile", std::move(paths), std::move(per_rank));
}

}  // namespace pio::workload
