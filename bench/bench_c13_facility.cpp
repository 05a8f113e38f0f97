// C-13 — facility execution: pool-width scaling of one multi-tenant facility
// run with a byte-identical FacilityResult at every width.
//
// DESIGN.md §16: a facility is many simulation cells launched by a
// coordinator over a simulated fabric; each cell is an independent
// exec::Pool task with its own engine. This bench builds an eight-cell
// facility (two IOR geometries, shuffled DLIO epochs, DAG workflows — the
// C-12 shapes, one per tenant), runs it at 1/2/4/8 pool threads after one
// untimed warm-up run, takes the median wall time of five runs per width
// against the sanctioned wall clock, and hashes every full FacilityResult:
// any digest mismatch means thread scheduling leaked into the science, which
// is a hard failure here (exit 1) and in tests/test_parsim.cpp across five
// system configurations.
//
// Wall-clock speedup depends on the host's core count — on a single-core
// container every width measures ~1x; the determinism column is the
// machine-independent claim.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/facility.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

using namespace pio;

namespace {

/// Eight tenant cells cycling the four C-12 workload shapes.
struct Tenants {
  std::vector<std::unique_ptr<workload::Workload>> owned;
  std::vector<eval::FacilityCell> cells;
};

Tenants build_tenants() {
  Tenants tenants;
  workload::IorConfig ior_a;
  ior_a.ranks = 4;
  ior_a.block_size = Bytes::from_mib(4);
  ior_a.transfer_size = Bytes::from_mib(1);
  tenants.owned.push_back(workload::ior_like(ior_a));
  workload::IorConfig ior_b = ior_a;
  ior_b.transfer_size = Bytes::from_kib(256);
  tenants.owned.push_back(workload::ior_like(ior_b));
  workload::DlioConfig dlio;
  dlio.ranks = 4;
  dlio.samples = 256;
  dlio.samples_per_file = 64;
  dlio.batch_size = 8;
  dlio.shuffle = true;
  dlio.seed = 5;
  tenants.owned.push_back(workload::dlio_like(dlio));
  workload::WorkflowConfig wf;
  wf.workers = 4;
  wf.stages = 2;
  wf.tasks_per_stage = 8;
  wf.files_per_task = 2;
  tenants.owned.push_back(workload::workflow_dag(wf));

  pfs::PfsConfig system;
  system.clients = 8;
  system.io_nodes = 2;
  system.osts = 4;
  system.disk_kind = pfs::DiskKind::kSsd;
  for (std::size_t i = 0; i < 8; ++i) {
    eval::FacilityCell cell;
    cell.system = system;
    cell.workload = tenants.owned[i % tenants.owned.size()].get();
    tenants.cells.push_back(cell);
  }
  return tenants;
}

struct ScalingPoint {
  int threads = 1;
  double wall_ms = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
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

  bench::banner("C-13",
                "facility execution: pool-width scaling with a "
                "byte-identical FacilityResult (DESIGN.md section 16)");

  const Tenants tenants = build_tenants();
  constexpr int kRepetitions = 5;
  eval::FacilityConfig config;
  config.seed = 11;
  config.threads = 1;
  const std::uint64_t reference = eval::run_facility(config, tenants.cells).digest();  // warm-up
  bool identical = true;
  std::vector<ScalingPoint> points;
  const trace::WallClock wall;
  for (const int threads : {1, 2, 4, 8}) {
    config.threads = threads;
    ScalingPoint point{threads, 0.0, 0, 0};
    std::vector<double> wall_ms;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const SimTime start = wall.now();
      const auto result = eval::run_facility(config, tenants.cells);
      wall_ms.push_back((wall.now() - start).ms());
      point.digest = result.digest();
      point.events = result.events;
      identical = identical && point.digest == reference;
    }
    std::nth_element(wall_ms.begin(), wall_ms.begin() + kRepetitions / 2, wall_ms.end());
    point.wall_ms = wall_ms[kRepetitions / 2];
    points.push_back(point);
  }

  TextTable table{{"threads", "wall time", "speedup", "events/s", "digest", "identical"}};
  for (const auto& point : points) {
    const double speedup = points[0].wall_ms / point.wall_ms;
    const double events_per_sec =
        point.wall_ms > 0.0 ? static_cast<double>(point.events) / (point.wall_ms / 1e3) : 0.0;
    std::ostringstream digest_hex;
    digest_hex << std::hex << point.digest;
    table.add_row({std::to_string(point.threads), format_double(point.wall_ms, 1) + " ms",
                   format_double(speedup, 2) + "x", format_double(events_per_sec / 1e6, 2) + "M",
                   digest_hex.str(), point.digest == reference ? "yes" : "NO"});
    bench::emit_row(Record{{"threads", static_cast<std::uint64_t>(point.threads)},
                           {"wall_ms", point.wall_ms},
                           {"speedup", speedup},
                           {"events", point.events},
                           {"digest", point.digest},
                           {"identical", point.digest == reference ? std::uint64_t{1}
                                                                          : std::uint64_t{0}}});
  }
  std::cout << table.to_string();

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n  \"bench\": \"c13_facility\",\n"
        << "  \"host\": " << bench::host_context_json() << ",\n"
        << "  \"cells\": " << tenants.cells.size() << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::ostringstream digest_hex;
      digest_hex << std::hex << points[i].digest;
      out << "    {\"threads\": " << points[i].threads
          << ", \"wall_ms\": " << format_double(points[i].wall_ms, 3)
          << ", \"speedup\": " << format_double(points[0].wall_ms / points[i].wall_ms, 3)
          << ", \"events\": " << points[i].events << ", \"digest\": \"0x" << digest_hex.str()
          << "\"}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"result_identical_across_threads\": " << (identical ? "true" : "false")
        << "\n}\n";
    std::cout << "wrote " << json_out << "\n";
  }

  std::cout << "shape check: " << (identical ? "HOLDS" : "VIOLATED")
            << " (FacilityResult digest is byte-identical at every pool width; wall-clock "
               "speedup is host-core-bound)\n";
  return identical ? 0 : 1;
}
