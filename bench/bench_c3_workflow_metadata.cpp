// C3 — Data-intensive workflows are metadata-intensive (§V.C).
//
// Paper: "In sharp contrast to the traditional highly coherent, sequential,
// large-transaction reads and writes, data-intensive workflows have been
// shown to often utilize non-sequential, metadata-intensive, and small-
// transaction reads and writes."
//
// Expected shape: per byte moved, the workflow issues orders of magnitude
// more metadata operations than the checkpoint workload; the MDS — not the
// OSTs — becomes the busy server.
#include <iostream>

#include "bench_util.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

using namespace pio;
using namespace pio::literals;

namespace {

struct RunSummary {
  std::uint64_t mds_ops = 0;
  Bytes moved = Bytes::zero();
  SimTime mds_busy = SimTime::zero();
  SimTime makespan = SimTime::zero();
  double mean_op_kib = 0.0;
};

RunSummary run(const workload::Workload& w) {
  sim::Engine engine{3};
  auto system = bench::reference_testbed(pfs::DiskKind::kSsd);
  pfs::PfsModel model{engine, system};
  driver::ExecutionDrivenSimulator sim{engine, model};
  const auto result = sim.run(w);
  engine.run();
  RunSummary summary;
  summary.mds_ops = model.mds().stats().ops_total;
  summary.moved = result.bytes_read + result.bytes_written;
  summary.mds_busy = model.mds().stats().busy_time;
  summary.makespan = result.makespan;
  summary.mean_op_kib = result.data_ops == 0
                            ? 0.0
                            : summary.moved.kib() / static_cast<double>(result.data_ops);
  return summary;
}

}  // namespace

int main() {
  bench::banner("C3", "workflows are metadata-intensive, small-transaction (§V.C)");

  workload::WorkflowConfig wf;
  wf.workers = 16;
  wf.stages = 4;
  wf.tasks_per_stage = 64;
  wf.files_per_task = 4;
  wf.file_size = 256_KiB;
  wf.transaction_size = 16_KiB;
  wf.compute_per_task = SimTime::zero();
  const auto workflow = run(*workload::workflow_dag(wf));

  workload::CheckpointConfig ckpt;
  ckpt.ranks = 16;
  ckpt.checkpoint_per_rank = 16_MiB;
  ckpt.transfer_size = 8_MiB;
  ckpt.checkpoints = 1;
  ckpt.compute_phase = SimTime::zero();
  const auto checkpoint = run(*workload::checkpoint_restart(ckpt));

  TextTable table{{"workload", "bytes moved", "MDS ops", "MDS ops/GiB", "mean data op",
                   "MDS busy"}};
  auto add = [&](const std::string& name, const RunSummary& s) {
    const double per_gib =
        s.moved.gib() == 0.0 ? 0.0 : static_cast<double>(s.mds_ops) / s.moved.gib();
    table.add_row({name, format_bytes(s.moved), std::to_string(s.mds_ops),
                   format_double(per_gib, 0), format_double(s.mean_op_kib, 0) + " KiB",
                   format_time(s.mds_busy)});
    bench::emit_row(Record{{"workload", name},
                           {"moved_gib", s.moved.gib()},
                           {"mds_ops", s.mds_ops},
                           {"mds_ops_per_gib", per_gib},
                           {"mean_op_kib", s.mean_op_kib}});
  };
  add("workflow DAG", workflow);
  add("checkpoint", checkpoint);
  std::cout << table.to_string();

  const double wf_per_gib = static_cast<double>(workflow.mds_ops) / workflow.moved.gib();
  const double ck_per_gib = static_cast<double>(checkpoint.mds_ops) / checkpoint.moved.gib();
  std::cout << "\nmetadata intensity ratio (workflow / checkpoint): "
            << format_double(wf_per_gib / ck_per_gib, 1) << "x\n";
  std::cout << "shape check: the workflow must issue >10x more MDS ops per GiB with\n"
               "far smaller data transactions.\n";
  return wf_per_gib > 10.0 * ck_per_gib ? 0 : 1;
}
