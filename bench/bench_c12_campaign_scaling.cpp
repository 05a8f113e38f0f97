// C-12 — parallel campaign execution: thread-count scaling of the closed
// evaluation loop with a byte-identical result at every width.
//
// DESIGN.md §11: the whole campaign fans out across an exec::Pool — each
// (iteration, workload) measure→replay→simulate chain runs on its own
// engine with seeds split via derive_seed, and a serial fold applies the
// calibration feedback in submission order. This bench runs the same
// 4-workload x 3-iteration campaign at 1/2/4/8 threads, times each run
// against the sanctioned wall clock, and takes eval::digest of the
// CampaignResult: any mismatch means
// the parallel path leaked scheduling order into the science, which is a
// hard failure here (and in tests/test_exec.cpp).
//
// Wall-clock speedup depends on the host's core count — on a single-core
// container every width measures ~1x; the determinism column is the
// machine-independent claim.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/campaign.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

using namespace pio;

namespace {

/// The C-12 sweep: two IOR geometries, a shuffled DLIO epoch, and a DAG
/// workflow — four independent chains per iteration for the pool to spread.
struct Sweep {
  std::unique_ptr<workload::Workload> a, b, c, d;
  [[nodiscard]] std::vector<const workload::Workload*> view() const {
    return {a.get(), b.get(), c.get(), d.get()};
  }
};

Sweep build_sweep() {
  Sweep sweep;
  workload::IorConfig ior_a;
  ior_a.ranks = 8;
  ior_a.block_size = Bytes::from_mib(8);
  ior_a.transfer_size = Bytes::from_mib(1);
  sweep.a = workload::ior_like(ior_a);
  workload::IorConfig ior_b = ior_a;
  ior_b.transfer_size = Bytes::from_kib(256);
  sweep.b = workload::ior_like(ior_b);
  workload::DlioConfig dlio;
  dlio.ranks = 8;
  dlio.samples = 512;
  dlio.samples_per_file = 64;
  dlio.batch_size = 16;
  dlio.shuffle = true;
  dlio.seed = 5;
  sweep.c = workload::dlio_like(dlio);
  workload::WorkflowConfig wf;
  wf.workers = 8;
  wf.stages = 3;
  wf.tasks_per_stage = 16;
  wf.files_per_task = 2;
  sweep.d = workload::workflow_dag(wf);
  return sweep;
}

struct ScalingPoint {
  std::uint32_t threads = 1;
  double wall_ms = 0.0;
  std::uint64_t digest = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--json-out <path>]\n";
      return 2;
    }
  }

  bench::banner("C-12",
                "parallel campaign execution: thread-count scaling with a "
                "byte-identical CampaignResult (DESIGN.md section 11)");

  const Sweep sweep = build_sweep();
  const std::vector<std::uint32_t> widths = {1, 2, 4, 8};
  std::vector<ScalingPoint> points;
  const trace::WallClock wall;
  for (const std::uint32_t threads : widths) {
    eval::CampaignConfig config;
    config.testbed = bench::reference_testbed(pfs::DiskKind::kSsd);
    config.model = bench::reference_testbed(pfs::DiskKind::kHdd);  // mis-calibrated
    config.iterations = 3;
    config.seed = 11;
    config.threads = threads;
    eval::Campaign campaign{config};
    const SimTime start = wall.now();
    const auto result = campaign.run(sweep.view());
    const SimTime elapsed = wall.now() - start;
    points.push_back(ScalingPoint{threads, elapsed.ms(), eval::digest(config, result)});
  }

  bool identical = true;
  for (const auto& point : points) identical = identical && point.digest == points[0].digest;

  TextTable table{{"threads", "wall time", "speedup", "digest", "identical"}};
  for (const auto& point : points) {
    const double speedup = points[0].wall_ms / point.wall_ms;
    std::ostringstream digest_hex;
    digest_hex << std::hex << point.digest;
    table.add_row({std::to_string(point.threads), format_double(point.wall_ms, 1) + " ms",
                   format_double(speedup, 2) + "x", digest_hex.str(),
                   point.digest == points[0].digest ? "yes" : "NO"});
    bench::emit_row(Record{{"threads", static_cast<std::uint64_t>(point.threads)},
                           {"wall_ms", point.wall_ms},
                           {"speedup", speedup},
                           {"digest", point.digest},
                           {"identical", point.digest == points[0].digest ? std::uint64_t{1}
                                                                          : std::uint64_t{0}}});
  }
  std::cout << table.to_string();

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n  \"bench\": \"c12_campaign_scaling\",\n"
        << "  \"host\": " << bench::host_context_json() << ",\n"
        << "  \"sweep_workloads\": 4,\n  \"iterations\": 3,\n  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::ostringstream digest_hex;
      digest_hex << std::hex << points[i].digest;
      out << "    {\"threads\": " << points[i].threads << ", \"wall_ms\": "
          << format_double(points[i].wall_ms, 3)
          << ", \"speedup\": " << format_double(points[0].wall_ms / points[i].wall_ms, 3)
          << ", \"digest\": \"0x" << digest_hex.str() << "\"}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"result_identical_across_threads\": " << (identical ? "true" : "false")
        << "\n}\n";
    std::cout << "wrote " << json_out << "\n";
  }

  std::cout << "shape check: " << (identical ? "HOLDS" : "VIOLATED")
            << " (CampaignResult digest is byte-identical at every thread count; "
               "wall-clock speedup is host-core-bound)\n";
  return identical ? 0 : 1;
}
