// C-F3 — epoch-versioned membership: heartbeat detection latency is the
// grace period (not zero), placement mode sets the migration bill for a
// live drain, and the rebuild cap paces how fast the drain completes.
//
// Paper §V: emerging workloads run on *elastic* storage — targets join,
// drain and fail while jobs run — and evaluation must model the transition
// windows, not just the steady states. This bench exercises the cluster
// membership layer (DESIGN.md §13) end to end on the reference testbed
// with an IOR-like workload:
//
//   part A  — heartbeat grace sweep under a mid-write OST crash. Detection
//             is not omniscient: clients keep addressing the dead OST (and
//             eating retries) until `grace` silent intervals elapse, so the
//             measured detection latency grows monotonically with the
//             grace while staying inside one extra heartbeat of it.
//   part B  — placement-mode sweep under a live drain. Rendezvous hashing
//             migrates only the drained OST's stripes; round-robin's
//             modulus shift reshuffles the pool and pays a strictly larger
//             migration volume for the same operator action.
//   part C  — rebuild-cap sweep at rendezvous placement. The drain's
//             migration window shrinks strictly as the cap grows: the cap
//             is the knob trading drain time against background load.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/pool.hpp"
#include "workload/kernels.hpp"

using namespace pio;

namespace {

constexpr SimTime kCrashAt = SimTime::from_ms(10.0);

struct MembershipRun {
  driver::SimRunResult result;
  pfs::ResilienceStats stats;
  SimTime detect_latency = SimTime::zero();   ///< first kDetectedDown - true crash
  SimTime migration_window = SimTime::zero(); ///< first kRebuildStart -> last kRebuildDone
};

struct SweepPoint {
  std::uint32_t grace = 3;
  pfs::PlacementMode mode = pfs::PlacementMode::kRendezvousHash;
  Bandwidth cap = Bandwidth::from_mib_per_sec(256.0);
  bool crash = false;
  bool drain = false;
};

/// One IOR-like run on the cluster-mode testbed under the C-F3 schedule:
/// optionally a mid-write OST crash (recovering before read-back) and/or a
/// live drain of OST 0.
MembershipRun run_one(const SweepPoint& point) {
  auto config = bench::reference_testbed(pfs::DiskKind::kSsd);
  config.durability.track_contents = true;
  config.durability.rebuild_bandwidth = point.cap;
  config.durability.rebuild_jitter_fraction = 0.0;  // clean part-C monotonicity
  config.cluster.enabled = true;
  config.cluster.placement = point.mode;
  config.cluster.heartbeat_interval = SimTime::from_ms(2.0);
  config.cluster.heartbeat_jitter_fraction = 0.0;  // clean part-A latency readout
  config.cluster.heartbeat_grace = point.grace;
  config.cluster.horizon = SimTime::from_ms(400.0);
  if (point.crash) config.faults.ost_down(1, kCrashAt, SimTime::from_ms(60.0));
  if (point.drain) config.cluster.drain(0, SimTime::from_ms(30.0));
  config.retry.max_attempts = 6;
  config.retry.base_backoff = SimTime::from_ms(1.0);

  sim::Engine engine{1};
  pfs::PfsModel model{engine, config};
  SimTime detected = SimTime::max();
  SimTime rebuild_start = SimTime::max();
  SimTime rebuild_end = SimTime::zero();
  engine.set_span_sink([&](const obs::Span& s) {
    if (s.layer != obs::Layer::kClient) return;
    const auto kind = static_cast<pfs::ResilienceEventKind>(s.kind);
    if (kind == pfs::ResilienceEventKind::kDetectedDown && s.end < detected) detected = s.end;
    if (kind == pfs::ResilienceEventKind::kRebuildStart && s.end < rebuild_start) {
      rebuild_start = s.end;
    }
    if (kind == pfs::ResilienceEventKind::kRebuildDone && s.end > rebuild_end) {
      rebuild_end = s.end;
    }
  });

  driver::SimRunConfig run_config;
  run_config.layout.replicas = 2;
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  workload::IorConfig ior;
  ior.ranks = 16;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  ior.read_phase = true;  // the read-back crosses the post-churn placements

  MembershipRun out;
  out.result = sim.run(*workload::ior_like(ior));
  engine.run();  // drain the heartbeat horizon + migration resync
  engine.assert_drained();
  model.assert_quiescent();  // F4: every acked byte readable under the final map
  out.stats = model.resilience_stats();
  if (detected < SimTime::max()) out.detect_latency = detected - kCrashAt;
  if (rebuild_end > rebuild_start) out.migration_window = rebuild_end - rebuild_start;
  return out;
}

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

  bench::banner("C-F3",
                "cluster membership: detection latency tracks the heartbeat grace, "
                "rendezvous placement migrates less than round-robin on a live "
                "drain, and the rebuild cap paces the drain (DESIGN.md section 13)");

  // One flattened fan-out: part A's grace sweep (crash, no drain), part B's
  // placement modes (drain, no crash), part C's rebuild caps (drain at
  // rendezvous). Each run builds its own engine, so the pool spreads them
  // across PIO_THREADS with a fixed merged row order.
  const std::vector<std::uint32_t> graces = {2, 3, 5, 8};
  const std::vector<pfs::PlacementMode> modes = {pfs::PlacementMode::kRoundRobin,
                                                 pfs::PlacementMode::kRendezvousHash};
  const std::vector<double> caps_mib = {64.0, 256.0, 1024.0};
  std::vector<SweepPoint> plan;
  for (const std::uint32_t grace : graces) {
    plan.push_back({grace, pfs::PlacementMode::kRendezvousHash,
                    Bandwidth::from_mib_per_sec(256.0), /*crash=*/true, /*drain=*/false});
  }
  for (const pfs::PlacementMode mode : modes) {
    plan.push_back({3, mode, Bandwidth::from_mib_per_sec(256.0), /*crash=*/false,
                    /*drain=*/true});
  }
  for (const double cap : caps_mib) {
    plan.push_back({3, pfs::PlacementMode::kRendezvousHash, Bandwidth::from_mib_per_sec(cap),
                    /*crash=*/false, /*drain=*/true});
  }
  exec::Pool pool;
  const auto runs =
      pool.map_ordered(plan.size(), [&plan](std::size_t i) { return run_one(plan[i]); });

  // Part A: heartbeat grace sweep under the crash schedule.
  std::vector<SimTime> latencies;
  TextTable grace_table{{"grace", "detect latency", "retries", "stale retries", "failed ops",
                         "degraded reads"}};
  for (std::size_t gi = 0; gi < graces.size(); ++gi) {
    const auto& run = runs[gi];
    latencies.push_back(run.detect_latency);
    grace_table.add_row({std::to_string(graces[gi]), format_time(run.detect_latency),
                         std::to_string(run.stats.retries),
                         std::to_string(run.stats.stale_map_retries),
                         std::to_string(run.result.failed_ops),
                         std::to_string(run.stats.degraded_reads)});
    bench::emit_row(Record{{"part", std::string("detection")},
                           {"grace", static_cast<std::uint64_t>(graces[gi])},
                           {"detect_latency_ms", run.detect_latency.ms()},
                           {"retries", run.stats.retries},
                           {"stale_map_retries", run.stats.stale_map_retries},
                           {"failed_ops", run.result.failed_ops},
                           {"degraded_reads", run.stats.degraded_reads}});
  }
  std::cout << grace_table.to_string();
  std::cout << "clients keep addressing the dead OST until the grace expires: the window "
               "is a measured quantity, swept by one config knob.\n\n";

  // Part B: placement mode under a live drain.
  std::vector<Bytes> marked;
  TextTable mode_table{{"placement", "migration marked", "stale retries", "map refreshes",
                        "makespan"}};
  for (std::size_t mi = 0; mi < modes.size(); ++mi) {
    const auto& run = runs[graces.size() + mi];
    marked.push_back(run.stats.migration_marked_bytes);
    mode_table.add_row({pfs::to_string(modes[mi]),
                        format_bytes(run.stats.migration_marked_bytes),
                        std::to_string(run.stats.stale_map_retries),
                        std::to_string(run.stats.map_refreshes),
                        format_time(run.result.makespan)});
    bench::emit_row(Record{{"part", std::string("placement")},
                           {"mode", std::string(pfs::to_string(modes[mi]))},
                           {"migration_marked_bytes", run.stats.migration_marked_bytes.count()},
                           {"stale_map_retries", run.stats.stale_map_retries},
                           {"map_refreshes", run.stats.map_refreshes},
                           {"makespan_ms", run.result.makespan.ms()}});
  }
  std::cout << mode_table.to_string();
  std::cout << "the same drain bills round-robin for a pool-wide reshuffle and rendezvous "
               "hashing for the drained OST's share only.\n\n";

  // Part C: rebuild cap sweep on the drain migration (rendezvous).
  std::vector<SimTime> windows;
  TextTable cap_table{{"rebuild cap", "migration window", "rebuilt"}};
  for (std::size_t ci = 0; ci < caps_mib.size(); ++ci) {
    const auto& run = runs[graces.size() + modes.size() + ci];
    windows.push_back(run.migration_window);
    cap_table.add_row({format_double(caps_mib[ci], 0) + " MiB/s",
                       format_time(run.migration_window),
                       format_bytes(run.stats.rebuilt_bytes)});
    bench::emit_row(Record{{"part", std::string("drain_cap")},
                           {"cap_mib_per_sec", caps_mib[ci]},
                           {"migration_window_ms", run.migration_window.ms()},
                           {"rebuilt_bytes", run.stats.rebuilt_bytes.count()}});
  }
  std::cout << cap_table.to_string();

  bool latency_monotone = latencies.front() > SimTime::zero();
  for (std::size_t i = 1; i < latencies.size(); ++i) {
    latency_monotone = latency_monotone && latencies[i] > latencies[i - 1];
  }
  const bool hrw_cheaper = marked[1] > Bytes::zero() && marked[1] < marked[0];
  const bool cap_paces = windows[0] > windows[1] && windows[1] > windows[2] &&
                         windows[2] > SimTime::zero();
  const bool shape_holds = latency_monotone && hrw_cheaper && cap_paces;

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n  \"bench\": \"cf3_membership\",\n  \"detection\": [\n";
    for (std::size_t i = 0; i < graces.size(); ++i) {
      out << "    {\"grace\": " << graces[i]
          << ", \"detect_latency_ms\": " << format_double(latencies[i].ms(), 3) << "}"
          << (i + 1 < graces.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"placement\": [\n";
    for (std::size_t i = 0; i < modes.size(); ++i) {
      out << "    {\"mode\": \"" << pfs::to_string(modes[i])
          << "\", \"migration_marked_bytes\": " << marked[i].count() << "}"
          << (i + 1 < modes.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"drain_cap\": [\n";
    for (std::size_t i = 0; i < caps_mib.size(); ++i) {
      out << "    {\"cap_mib_per_sec\": " << format_double(caps_mib[i], 0)
          << ", \"migration_window_ms\": " << format_double(windows[i].ms(), 3) << "}"
          << (i + 1 < caps_mib.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"shape_holds\": " << (shape_holds ? "true" : "false") << "\n}\n";
    std::cout << "wrote " << json_out << "\n";
  }

  std::cout << "shape check: " << (shape_holds ? "HOLDS" : "VIOLATED")
            << " (detection latency grows monotonically with the grace; rendezvous "
               "migration volume < round-robin; drain window shrinks with the cap)\n";
  return shape_holds ? 0 : 1;
}
