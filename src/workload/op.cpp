#include "workload/op.hpp"

namespace pio::workload {

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate: return "create";
    case OpKind::kOpen: return "open";
    case OpKind::kClose: return "close";
    case OpKind::kRead: return "read";
    case OpKind::kWrite: return "write";
    case OpKind::kStat: return "stat";
    case OpKind::kMkdir: return "mkdir";
    case OpKind::kUnlink: return "unlink";
    case OpKind::kReaddir: return "readdir";
    case OpKind::kFsync: return "fsync";
    case OpKind::kCompute: return "compute";
    case OpKind::kBarrier: return "barrier";
  }
  return "?";
}

namespace {

class VectorStream final : public RankStream {
 public:
  explicit VectorStream(const std::vector<Op>& ops)
      : next_(ops.data()), end_(ops.data() + ops.size()) {}

  std::optional<Op> next() override {
    if (next_ == end_) return std::nullopt;
    return *next_++;
  }

 private:
  const Op* next_;
  const Op* end_;
};

}  // namespace

std::unique_ptr<RankStream> VectorWorkload::stream(std::int32_t rank) const {
  return std::make_unique<VectorStream>(per_rank_.at(static_cast<std::size_t>(rank)));
}

std::vector<std::vector<Op>> materialize(const Workload& workload) {
  std::vector<std::vector<Op>> out(static_cast<std::size_t>(workload.ranks()));
  for (std::int32_t r = 0; r < workload.ranks(); ++r) {
    auto stream = workload.stream(r);
    while (auto op = stream->next()) out[static_cast<std::size_t>(r)].push_back(std::move(*op));
  }
  return out;
}

WorkloadFootprint footprint(const Workload& workload) {
  WorkloadFootprint fp;
  for (std::int32_t r = 0; r < workload.ranks(); ++r) {
    auto stream = workload.stream(r);
    while (auto op = stream->next()) {
      ++fp.ops;
      switch (op->kind) {
        case OpKind::kRead: fp.bytes_read += op->size; break;
        case OpKind::kWrite: fp.bytes_written += op->size; break;
        case OpKind::kCompute:
        case OpKind::kBarrier:
          break;
        default: ++fp.metadata_ops; break;
      }
    }
  }
  return fp;
}

}  // namespace pio::workload
