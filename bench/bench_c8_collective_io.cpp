// C8 — Collective buffering transforms the POSIX-level pattern (Fig. 2 /
// the BT-IO motivation).
//
// Expected shape: for NPB BT-IO's nested strided writes, two-phase
// collective buffering replaces thousands of small strided POSIX writes
// with a handful of large contiguous ones, and the simulated write time on
// a seek-bound storage system drops accordingly.
#include <atomic>
#include <iostream>

#include "bench_util.hpp"
#include "mio/mio.hpp"
#include "par/comm.hpp"
#include "vfs/backend.hpp"
#include "vfs/file_system.hpp"
#include "workload/kernels.hpp"

using namespace pio;
using namespace pio::literals;

namespace {

struct CbOutcome {
  std::uint64_t posix_writes = 0;
  std::uint64_t posix_bytes = 0;
};

/// Drive the BT-IO pattern through mio on the measured path and count the
/// POSIX ops it produces.
CbOutcome run_btio_through_mio(std::uint32_t cb_nodes) {
  vfs::FileSystem fs;
  vfs::LocalBackend backend{fs};
  constexpr int kRanks = 16;
  const workload::BtioConfig bt{kRanks, 64, Bytes{40}, 1, "/btio/solution"};
  const auto ops = workload::materialize(*workload::btio_like(bt));
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> bytes{0};
  par::Runtime runtime{kRanks};
  runtime.run([&](par::Comm& comm) {
    mio::Hints hints;
    hints.cb_nodes = cb_nodes;
    if (comm.rank() == 0) (void)backend.mkdir("/btio");
    comm.barrier();
    auto file = mio::File::open_all(comm, backend, bt.file, true, hints);
    if (!file.ok()) throw std::runtime_error(file.error().message);
    // Gather this rank's write extents from the kernel's op stream.
    std::vector<mio::Extent> extents;
    std::vector<std::byte> payload;
    for (const auto& op : ops[static_cast<std::size_t>(comm.rank())]) {
      if (op.kind != workload::OpKind::kWrite) continue;
      extents.push_back(mio::Extent{op.offset, op.size});
      payload.resize(payload.size() + op.size.count());
    }
    auto r = file.value()->write_at_all(extents, payload);
    if (!r.ok()) throw std::runtime_error(r.error().message);
    writes += file.value()->posix_counters().writes;
    bytes += file.value()->posix_counters().bytes_written.count();
    (void)file.value()->close_all();
  });
  return CbOutcome{writes.load(), bytes.load()};
}

/// Simulated write time of an equivalent POSIX op stream on the HDD system.
SimTime simulated_write_time(std::uint64_t op_count, Bytes total) {
  const Bytes op_size = total / op_count;
  std::vector<std::vector<workload::Op>> per_rank(1);
  auto& seq = per_rank[0];
  PathTable paths;
  const FileId out = paths.intern("/sim/out");
  seq.push_back(workload::Op::create(out));
  for (std::uint64_t i = 0; i < op_count; ++i) {
    // Strided placement mirrors the pre-aggregation pattern.
    seq.push_back(workload::Op::write(out, (i * 7919) % total.count(), op_size));
  }
  seq.push_back(workload::Op::close(out));
  const workload::VectorWorkload w{"cb-sim", std::move(paths), std::move(per_rank)};
  const auto result = bench::simulate(bench::reference_testbed(pfs::DiskKind::kHdd), w);
  return result.write_time;
}

}  // namespace

int main() {
  bench::banner("C8", "two-phase collective buffering vs independent I/O (BT-IO)");
  TextTable table{{"mode", "POSIX writes", "bytes", "mean write", "simulated HDD time"}};
  for (const std::uint32_t cb : {0u, 1u, 2u, 4u}) {
    const auto outcome = run_btio_through_mio(cb);
    const auto mean = Bytes{outcome.posix_bytes / std::max<std::uint64_t>(1, outcome.posix_writes)};
    const auto sim_time = simulated_write_time(outcome.posix_writes, Bytes{outcome.posix_bytes});
    table.add_row({cb == 0 ? "independent" : "collective cb=" + std::to_string(cb),
                   std::to_string(outcome.posix_writes), format_bytes(Bytes{outcome.posix_bytes}),
                   format_bytes(mean), format_time(sim_time)});
    bench::emit_row(Record{{"cb_nodes", static_cast<std::uint64_t>(cb)},
                           {"posix_writes", outcome.posix_writes},
                           {"mean_write_bytes", mean.count()},
                           {"simulated_s", sim_time.sec()}});
  }
  std::cout << table.to_string();
  std::cout << "\nshape check: collective rows must show orders-of-magnitude fewer, far\n"
               "larger POSIX writes and a correspondingly shorter seek-bound write time.\n";
  return 0;
}
