#include "driver/measured_runner.hpp"

#include <atomic>
#include <map>
#include <vector>

#include "par/comm.hpp"
#include "trace/backend_shim.hpp"

namespace pio::driver {

namespace {

/// Sink that ignores everything (used when the caller passes nullptr).
class NullSink final : public trace::Sink {
 public:
  void record(const trace::TraceEvent&) override {}
};

}  // namespace

MeasuredRunResult run_measured(vfs::FileSystem& fs, const workload::Workload& workload,
                               trace::Sink* sink) {
  NullSink null_sink;
  trace::Sink& out = sink != nullptr ? *sink : static_cast<trace::Sink&>(null_sink);
  const trace::WallClock clock;
  vfs::LocalBackend shared_backend{fs};

  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> bytes_written{0};

  par::Runtime runtime{workload.ranks()};
  const SimTime start = clock.now();
  runtime.run([&](par::Comm& comm) {
    const std::int32_t rank = comm.rank();
    trace::TracingBackend backend{shared_backend, out, clock, rank};
    std::map<FileId, vfs::Fd> open_fds;
    std::vector<std::byte> buffer;
    for (const workload::Op& op : workload.ops(rank)) {
      using K = workload::OpKind;
      ++ops;
      bool ok = true;
      const std::string& path = workload.path(op.file);
      switch (op.kind) {
        case K::kCreate: {
          auto fd = backend.open(path, {vfs::OpenMode::kReadWrite, true, true});
          ok = fd.ok();
          if (ok) open_fds[op.file] = fd.value();
          break;
        }
        case K::kOpen: {
          auto fd = backend.open(path, {vfs::OpenMode::kReadWrite, false, false});
          ok = fd.ok();
          if (ok) open_fds[op.file] = fd.value();
          break;
        }
        case K::kClose: {
          const auto it = open_fds.find(op.file);
          if (it == open_fds.end()) {
            ok = false;
            break;
          }
          ok = backend.close(it->second) == vfs::FsStatus::kOk;
          open_fds.erase(it);
          break;
        }
        case K::kRead:
        case K::kWrite: {
          auto it = open_fds.find(op.file);
          if (it == open_fds.end()) {
            // Implicit open (profile-generated workloads may elide opens).
            auto fd = backend.open(path, {vfs::OpenMode::kReadWrite, true, false});
            if (!fd.ok()) {
              ok = false;
              break;
            }
            it = open_fds.emplace(op.file, fd.value()).first;
          }
          const auto size = static_cast<std::size_t>(op.size.count());
          if (buffer.size() < size) buffer.resize(size);
          if (op.kind == K::kWrite) {
            // Deterministic pattern: function of offset so read-back
            // verification in tests is possible.
            for (std::size_t i = 0; i < size; ++i) {
              buffer[i] = static_cast<std::byte>((op.offset + i) & 0xFF);
            }
            auto r = backend.pwrite(it->second, std::span{buffer.data(), size}, op.offset);
            ok = r.ok() && r.value() == size;
            if (r.ok()) bytes_written += r.value();
          } else {
            auto r = backend.pread(it->second, std::span{buffer.data(), size}, op.offset);
            ok = r.ok();
            if (r.ok()) bytes_read += r.value();
          }
          break;
        }
        case K::kStat: ok = backend.stat(path).ok(); break;
        case K::kMkdir: {
          const auto status = backend.mkdir(path);
          ok = status == vfs::FsStatus::kOk || status == vfs::FsStatus::kExists;
          break;
        }
        case K::kUnlink: ok = backend.remove(path) == vfs::FsStatus::kOk; break;
        case K::kReaddir: ok = backend.readdir(path).ok(); break;
        case K::kFsync: {
          const auto it = open_fds.find(op.file);
          ok = it != open_fds.end() && backend.fsync(it->second) == vfs::FsStatus::kOk;
          break;
        }
        case K::kCompute: break;
        case K::kBarrier: comm.barrier(); break;
      }
      if (!ok) ++failed;
    }
    // Close anything the workload leaked.
    for (const auto& [file, fd] : open_fds) backend.close(fd);
  });

  MeasuredRunResult result;
  result.wall_time = clock.now() - start;
  result.ops = ops.load();
  result.failed_ops = failed.load();
  result.bytes_read = Bytes{bytes_read.load()};
  result.bytes_written = Bytes{bytes_written.load()};
  return result;
}

}  // namespace pio::driver
