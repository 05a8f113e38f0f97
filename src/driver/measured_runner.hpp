// PIOEval driver: the measured-execution path (§IV.A "Measurements ...
// conducted on real-world computing environments").
//
// Runs a workload for real: rank threads (pio::par) execute every operation
// against the in-memory VFS through a per-rank TracingBackend, so the
// profiler/tracer observe genuine POSIX-layer calls with wall-clock
// timestamps. Compute phases are skipped: the measurement is of the I/O.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "trace/event.hpp"
#include "vfs/backend.hpp"
#include "vfs/file_system.hpp"
#include "workload/op.hpp"

namespace pio::driver {

struct MeasuredRunResult {
  SimTime wall_time = SimTime::zero();
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  Bytes bytes_read = Bytes::zero();
  Bytes bytes_written = Bytes::zero();
};

/// Execute `workload` with threads-as-ranks against `fs`. Events from all
/// ranks are recorded into `sink` (if non-null) with a shared wall clock.
MeasuredRunResult run_measured(vfs::FileSystem& fs, const workload::Workload& workload,
                               trace::Sink* sink);

}  // namespace pio::driver
