// PIOEval example: a full Fig. 4 evaluation campaign on emerging workloads.
//
// Runs the closed measure -> model -> simulate -> feedback loop for a
// mixed sweep (a data-intensive workflow plus a traditional checkpoint),
// against a deliberately mis-calibrated storage model, and prints the
// per-iteration convergence plus the final characterization profile.
//
// Every (iteration, workload) point fans out across a worker pool and the
// calibration feedback is folded in afterwards; the result is
// byte-identical at any width (DESIGN.md §11):
//
//   $ ./examples/workflow_campaign             # serial (or $PIO_THREADS)
//   $ ./examples/workflow_campaign --threads 4
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/format.hpp"
#include "eval/campaign.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

using namespace pio;
using namespace pio::literals;

int main(int argc, char** argv) {
  eval::CampaignConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      config.threads = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: " << argv[0] << " [--threads <n>]\n";
      return 2;
    }
  }
  // The testbed: SSD-backed system we can "measure".
  config.testbed.clients = 8;
  config.testbed.io_nodes = 2;
  config.testbed.osts = 8;
  config.testbed.disk_kind = pfs::DiskKind::kSsd;
  // The model starts mis-calibrated: its SSDs are twice as fast and its
  // MDS has twice the service threads.
  config.model = config.testbed;
  config.model.ssd.read_bandwidth = Bandwidth::from_gib_per_sec(6.0);
  config.model.ssd.write_bandwidth = Bandwidth::from_gib_per_sec(4.0);
  config.model.mds.service_threads = 8;
  config.iterations = 4;

  // The sweep: one emerging workload, one traditional one.
  workload::WorkflowConfig wf;
  wf.workers = 8;
  wf.stages = 3;
  wf.tasks_per_stage = 24;
  wf.files_per_task = 3;
  wf.compute_per_task = SimTime::from_ms(5.0);
  const auto workflow = workload::workflow_dag(wf);

  workload::CheckpointConfig ckpt;
  ckpt.ranks = 8;
  ckpt.checkpoint_per_rank = 32_MiB;
  ckpt.transfer_size = 4_MiB;
  ckpt.checkpoints = 2;
  ckpt.compute_phase = SimTime::from_ms(500.0);
  const auto checkpoint = workload::checkpoint_restart(ckpt);

  eval::Campaign campaign{config};
  const auto result = campaign.run({workflow.get(), checkpoint.get()});

  std::cout << result.to_string() << "\n";
  std::cout << "per-workload detail of the final iteration:\n";
  for (const auto& point : result.iterations.back().points) {
    std::cout << "  " << point.workload << ": measured " << format_time(point.measured)
              << ", predicted " << format_time(point.predicted) << " (|error| "
              << format_percent(point.abs_pct_error()) << ")\n";
  }
  std::cout << "\ncharacterization of the final measurement pass:\n";
  const auto summary = result.profile.summarize();
  std::cout << "  files touched: " << summary.files << ", metadata share of ops: "
            << format_percent(summary.metadata_fraction_ops()) << ", bytes r/w: "
            << format_bytes(summary.bytes_read) << " / " << format_bytes(summary.bytes_written)
            << "\n";
  std::cout << "\nloop " << (result.converged() ? "converged" : "did NOT converge")
            << "; final calibration factor " << format_double(result.final_calibration, 3)
            << "\n";
  return result.converged() ? 0 : 1;
}
