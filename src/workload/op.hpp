// PIOEval workload: the operation model (§IV.A.1, §IV.B.4).
//
// Every workload source — benchmark kernels, the synthetic I/O DSL, trace
// replay, characterization sampling — produces the same thing: one sequence
// of Ops per rank, built up front. Execution-driven simulation (§IV.C.3)
// interleaves "workload produce" and "workload consume" by issuing each
// rank's next op only when its previous one completes; no generator reads
// simulated state, so building the sequences first changes nothing the
// driver sees.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/path_table.hpp"
#include "common/types.hpp"

namespace pio::workload {

enum class OpKind : std::uint8_t {
  kCreate,   ///< create + open for writing
  kOpen,     ///< open existing
  kClose,
  kRead,
  kWrite,
  kStat,
  kMkdir,
  kUnlink,
  kReaddir,
  kFsync,
  kCompute,  ///< think time between I/O phases
  kBarrier,  ///< synchronize all ranks
};

[[nodiscard]] const char* to_string(OpKind kind);

/// One workload operation. Interpretation of fields depends on `kind`:
/// data ops use file/offset/size; kCompute uses `think_time`; kBarrier uses
/// nothing. `file` is an id in the owning workload's path table
/// (`Workload::paths()`); ops that touch no file name id 0, the empty path.
struct Op {
  OpKind kind = OpKind::kCompute;
  FileId file = 0;
  std::uint64_t offset = 0;
  Bytes size = Bytes::zero();
  SimTime think_time = SimTime::zero();

  static Op create(FileId file) { return Op{OpKind::kCreate, file, 0, {}, {}}; }
  static Op open(FileId file) { return Op{OpKind::kOpen, file, 0, {}, {}}; }
  static Op close(FileId file) { return Op{OpKind::kClose, file, 0, {}, {}}; }
  static Op read(FileId file, std::uint64_t offset, Bytes size) {
    return Op{OpKind::kRead, file, offset, size, {}};
  }
  static Op write(FileId file, std::uint64_t offset, Bytes size) {
    return Op{OpKind::kWrite, file, offset, size, {}};
  }
  static Op stat(FileId file) { return Op{OpKind::kStat, file, 0, {}, {}}; }
  static Op mkdir(FileId file) { return Op{OpKind::kMkdir, file, 0, {}, {}}; }
  static Op unlink(FileId file) { return Op{OpKind::kUnlink, file, 0, {}, {}}; }
  static Op readdir(FileId file) { return Op{OpKind::kReaddir, file, 0, {}, {}}; }
  static Op fsync(FileId file) { return Op{OpKind::kFsync, file, 0, {}, {}}; }
  static Op compute(SimTime t) { return Op{OpKind::kCompute, 0, 0, {}, t}; }
  static Op barrier() { return Op{OpKind::kBarrier, 0, 0, {}, {}}; }
};

// The driver reads ops in place and every table holds them by value: an op
// must stay a plain record that copies without touching the heap.
static_assert(std::is_trivially_copyable_v<Op>);
static_assert(sizeof(Op) <= 32);

/// A cursor over one rank's ops. Kept for perfbench's `drain_ops`, which
/// drains each rank through `Workload::stream`; the library reads
/// `Workload::ops(rank)` directly.
class RankStream final {
 public:
  explicit RankStream(std::span<const Op> ops) : ops_(ops) {}
  /// Next op, or nullopt when the rank is done.
  [[nodiscard]] std::optional<Op> next() {
    if (next_ == ops_.size()) return std::nullopt;
    return ops_[next_++];
  }

 private:
  std::span<const Op> ops_;
  std::size_t next_ = 0;
};

/// A workload: a name, the files its ops name (by id), and each rank's ops
/// in issue order.
class Workload final {
 public:
  Workload(std::string name, PathTable paths, std::vector<std::vector<Op>> per_rank)
      : name_(std::move(name)), paths_(std::move(paths)), per_rank_(std::move(per_rank)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::int32_t ranks() const { return static_cast<std::int32_t>(per_rank_.size()); }
  [[nodiscard]] std::span<const Op> ops(std::int32_t rank) const {
    return per_rank_.at(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] std::unique_ptr<RankStream> stream(std::int32_t rank) const {
    return std::make_unique<RankStream>(ops(rank));
  }
  /// The files the ops name, by id.
  [[nodiscard]] const PathTable& paths() const { return paths_; }
  [[nodiscard]] const std::string& path(FileId file) const { return paths_.path(file); }

 private:
  std::string name_;
  PathTable paths_;
  std::vector<std::vector<Op>> per_rank_;
};

/// Total bytes a workload would read/write, and op count (dry run).
struct WorkloadFootprint {
  std::uint64_t ops = 0;
  Bytes bytes_read = Bytes::zero();
  Bytes bytes_written = Bytes::zero();
  std::uint64_t metadata_ops = 0;
};
[[nodiscard]] WorkloadFootprint footprint(const Workload& workload);

}  // namespace pio::workload
