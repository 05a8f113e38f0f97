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

WorkloadFootprint footprint(const Workload& workload) {
  WorkloadFootprint fp;
  for (std::int32_t r = 0; r < workload.ranks(); ++r) {
    for (const Op& op : workload.ops(r)) {
      ++fp.ops;
      switch (op.kind) {
        case OpKind::kRead: fp.bytes_read += op.size; break;
        case OpKind::kWrite: fp.bytes_written += op.size; break;
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
