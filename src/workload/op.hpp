// PIOEval workload: the operation/stream model (§IV.A.1, §IV.B.4).
//
// Every workload source — benchmark kernels, the synthetic I/O DSL, trace
// replay, characterization sampling — produces the same thing: one lazy
// stream of Ops per rank. Lazy streams are what make execution-driven
// simulation (§IV.C.3) possible: the driver pulls the next op only when the
// previous one completes, interleaving "workload produce" and "workload
// consume" exactly as the paper describes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

// Streams hand ops out by value and the driver holds one per rank: an op
// must stay a plain record that copies without touching the heap.
static_assert(std::is_trivially_copyable_v<Op>);
static_assert(sizeof(Op) <= 32);

/// Lazy per-rank op stream.
class RankStream {
 public:
  virtual ~RankStream() = default;
  /// Next op, or nullopt when the rank is done.
  [[nodiscard]] virtual std::optional<Op> next() = 0;
};

/// A workload = a name + a number of ranks + a stream factory. Workloads
/// must be re-streamable: `stream(r)` can be called repeatedly and always
/// yields the same sequence (determinism requirement).
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::int32_t ranks() const = 0;
  [[nodiscard]] virtual std::unique_ptr<RankStream> stream(std::int32_t rank) const = 0;
  /// The files the streams' ops name, by id.
  [[nodiscard]] virtual const PathTable& paths() const = 0;
  [[nodiscard]] const std::string& path(FileId file) const { return paths().path(file); }
};

/// Fully materialized workload (the kernels, the DSL expander, trace replay).
class VectorWorkload final : public Workload {
 public:
  VectorWorkload(std::string name, PathTable paths, std::vector<std::vector<Op>> per_rank)
      : name_(std::move(name)), paths_(std::move(paths)), per_rank_(std::move(per_rank)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::int32_t ranks() const override {
    return static_cast<std::int32_t>(per_rank_.size());
  }
  [[nodiscard]] std::unique_ptr<RankStream> stream(std::int32_t rank) const override;
  [[nodiscard]] const PathTable& paths() const override { return paths_; }

 private:
  std::string name_;
  PathTable paths_;
  std::vector<std::vector<Op>> per_rank_;
};

/// Drain all streams into vectors (for inspection and tests).
[[nodiscard]] std::vector<std::vector<Op>> materialize(const Workload& workload);

/// Total bytes a workload would read/write, and op count (dry run).
struct WorkloadFootprint {
  std::uint64_t ops = 0;
  Bytes bytes_read = Bytes::zero();
  Bytes bytes_written = Bytes::zero();
  std::uint64_t metadata_ops = 0;
};
[[nodiscard]] WorkloadFootprint footprint(const Workload& workload);

}  // namespace pio::workload
