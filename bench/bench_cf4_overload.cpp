// C-F4 — overload control: under a transient capacity loss at open-loop
// arrivals, naive retries congestion-collapse (goodput craters and stays
// down long after the fault clears, retry amplification multiplies the
// offered load) while the overload-controlled stack degrades gracefully
// (bounded sojourn via CoDel shedding, retry budget, per-server breakers,
// adaptive timeouts, end-to-end deadlines) and recovers promptly.
//
// Paper §V: emerging workloads are elastic and bursty; evaluation must
// capture the *transition* behaviour — meltdown and recovery — not just
// steady-state bandwidth. This bench drives the same open-loop arrival
// schedule (fixed-rate issue, independent of completions — the regime where
// retry storms feed on themselves) through two client/server policy stacks
// on the same testbed and compares windowed goodput, tail latency and retry
// amplification (DESIGN.md §14).
//
// piolint: allow-file(C2) — run_one() schedules against a stack-local
// engine/model and drains it before returning, so by-reference captures
// cannot outlive their frame; library code gets no such exemption.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/pool.hpp"

using namespace pio;

namespace {

constexpr std::uint32_t kClients = 8;
constexpr std::uint32_t kOsts = 4;
constexpr SimTime kFirstArrival = SimTime::from_ms(5.0);
constexpr SimTime kInterval = SimTime::from_us(1800.0);  // per-client issue period
constexpr SimTime kHorizon = SimTime::from_ms(240.0);    // last arrival before this
constexpr SimTime kStormStart = SimTime::from_ms(40.0);
constexpr SimTime kStormEnd = SimTime::from_ms(140.0);
constexpr double kStormFactor = 10.0;                    // transient 10x service slowdown
constexpr SimTime kWindow = SimTime::from_ms(20.0);
const Bytes kOpSize = Bytes::from_kib(256);

struct OverloadRun {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double p99_ms = 0.0;
  double amplification = 0.0;  ///< device-path attempts per submitted op
  std::uint64_t server_shed = 0;
  std::uint64_t server_rejected = 0;
  std::uint64_t budget_denied = 0;
  std::uint64_t deadline_giveups = 0;
  std::vector<std::uint64_t> goodput;  ///< ok completions per kWindow bucket
};

/// The naive stack: unbounded queues, aggressive fixed-timeout retries and
/// nothing to stop them — the configuration that melts down.
pfs::RetryPolicy naive_policy() {
  pfs::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.op_timeout = SimTime::from_ms(10.0);
  retry.base_backoff = SimTime::from_us(500.0);
  retry.backoff_multiplier = 2.0;
  retry.jitter_fraction = 0.2;
  return retry;
}

/// The controlled stack: same retry aggressiveness, but every §14 mechanism
/// armed — CoDel shedding server-side; budget, breakers, adaptive timeouts
/// and a deadline client-side.
pfs::RetryPolicy controlled_policy() {
  pfs::RetryPolicy retry = naive_policy();
  retry.adaptive_timeout = true;
  retry.initial_timeout = SimTime::from_ms(10.0);
  retry.min_timeout = SimTime::from_ms(1.0);
  retry.max_timeout = SimTime::from_ms(50.0);
  retry.op_deadline = SimTime::from_ms(50.0);
  retry.retry_budget = true;
  retry.budget_ratio = 0.1;
  retry.budget_cap = 20.0;
  retry.breaker = true;
  retry.breaker_threshold = 8;
  retry.breaker_open_base = SimTime::from_ms(5.0);
  return retry;
}

OverloadRun run_one(bool controlled) {
  pfs::PfsConfig config;
  config.clients = kClients;
  config.io_nodes = 2;
  config.osts = kOsts;
  config.disk_kind = pfs::DiskKind::kSsd;
  for (std::uint32_t i = 0; i < kOsts; ++i) {
    config.faults.ost_straggler(i, kStormStart, kStormEnd, kStormFactor);
  }
  config.retry = controlled ? controlled_policy() : naive_policy();
  if (controlled) {
    config.admission.policy = pfs::AdmissionPolicy::kCodelShed;
    config.admission.shed_target = SimTime::from_ms(2.0);
  }

  sim::Engine engine{1};
  pfs::PfsModel model{engine, config};

  // One single-chunk file per client, rotated across the OST pool so the
  // open-loop storm loads every target evenly.
  std::vector<pfs::StripeLayout> layouts(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    layouts[c] = pfs::StripeLayout{Bytes::from_mib(1), 1, c % kOsts};
    bool created = false;
    model.meta(c, pfs::MetaOp::kCreate, model.mds().intern("/f" + std::to_string(c)),
               [&created](pfs::MetaResult r) { created = r.ok(); }, layouts[c]);
    engine.run();
    if (!created) throw std::runtime_error("cf4: create failed");
  }

  // Open-loop arrivals: client c issues a 256 KiB write every kInterval
  // regardless of completions — offered load is fixed by the clock, so a
  // slow server cannot push back and retry storms feed on themselves.
  OverloadRun out;
  std::vector<double> latencies_ms;
  const auto windows = static_cast<std::size_t>(kHorizon.ns() / kWindow.ns()) + 16;
  out.goodput.assign(windows, 0);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    std::uint64_t k = 0;
    for (SimTime t = kFirstArrival + (kInterval / static_cast<std::int64_t>(kClients)) *
                                         static_cast<std::int64_t>(c);
         t < kHorizon; t = t + kInterval, ++k) {
      engine.schedule_at(t, [&, c, k] {
        ++out.submitted;
        model.io(c, model.mds().intern("/f" + std::to_string(c)), layouts[c],
                 (k % 64) * kOpSize.count(), kOpSize, /*is_write=*/true, [&](pfs::IoResult r) {
                   if (!r.ok) {
                     ++out.failed;
                     return;
                   }
                   ++out.ok;
                   latencies_ms.push_back(r.latency().ms());
                   const auto w = static_cast<std::size_t>(r.completed.ns() / kWindow.ns());
                   if (w < out.goodput.size()) ++out.goodput[w];
                 });
      });
    }
  }
  engine.run();  // arrivals, storm, and the post-storm backlog drain
  engine.assert_drained();
  model.assert_quiescent();  // F5a/F5b hold under both stacks

  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    out.p99_ms = latencies_ms[std::min(latencies_ms.size() - 1,
                                       (latencies_ms.size() * 99) / 100)];
  }
  const auto& res = model.resilience_stats();
  out.amplification = out.submitted == 0
                          ? 0.0
                          : static_cast<double>(res.attempts) / static_cast<double>(out.submitted);
  out.budget_denied = res.budget_denied;
  out.deadline_giveups = res.deadline_giveups;
  const auto server = model.server_overload_totals();
  out.server_shed = server.shed;
  out.server_rejected = server.rejected;
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

  bench::banner("C-F4",
                "overload control: open-loop arrivals through a transient 10x capacity "
                "loss congestion-collapse with naive retries and degrade gracefully "
                "with admission control + retry budgets + breakers + deadlines "
                "(DESIGN.md section 14)");

  exec::Pool pool;
  const auto runs = pool.map_ordered(2, [](std::size_t i) { return run_one(i == 1); });
  const OverloadRun& naive = runs[0];
  const OverloadRun& controlled = runs[1];

  TextTable table{{"stack", "submitted", "ok", "failed", "p99 latency", "attempts/op",
                   "server shed", "budget denied", "deadline giveups"}};
  const auto row = [&table](const char* name, const OverloadRun& r) {
    table.add_row({name, std::to_string(r.submitted), std::to_string(r.ok),
                   std::to_string(r.failed), format_double(r.p99_ms, 3) + " ms",
                   format_double(r.amplification, 2), std::to_string(r.server_shed),
                   std::to_string(r.budget_denied), std::to_string(r.deadline_giveups)});
  };
  row("naive", naive);
  row("controlled", controlled);
  std::cout << table.to_string();

  // Recovery: goodput in the windows after the storm clears (plus one window
  // of slack). A collapsed stack is still digesting its retry backlog there.
  const auto recovery_from = static_cast<std::size_t>(kStormEnd.ns() / kWindow.ns()) + 1;
  std::uint64_t naive_recovery = 0, controlled_recovery = 0;
  for (std::size_t w = recovery_from; w < naive.goodput.size(); ++w) {
    naive_recovery += naive.goodput[w];
    controlled_recovery += controlled.goodput[w];
  }
  std::cout << "post-storm goodput (ok ops after " << format_time(kStormEnd + kWindow)
            << "): naive=" << naive_recovery << " controlled=" << controlled_recovery << "\n";
  for (std::size_t w = 0; w < naive.goodput.size(); ++w) {
    if (naive.goodput[w] == 0 && controlled.goodput[w] == 0 &&
        w > recovery_from) {
      continue;  // past both tails
    }
    bench::emit_row(Record{{"window", static_cast<std::uint64_t>(w)},
                           {"window_start_ms", kWindow.ms() * static_cast<double>(w)},
                           {"naive_ok", naive.goodput[w]},
                           {"controlled_ok", controlled.goodput[w]}});
  }

  // Shape checks (the C-F4 claim):
  //  1. graceful degradation beats collapse on total goodput;
  //  2. bounded sojourn: the controlled tail is far below the naive tail;
  //  3. the budget kills retry amplification;
  //  4. the control plane actually engaged (sheds happened, retries were
  //     denied) — a vacuous pass would hide a dead knob;
  //  5. recovery: once the fault clears, the controlled stack out-delivers
  //     the naive stack, which is still digesting its backlog.
  const bool more_goodput = controlled.ok > naive.ok;
  const bool tighter_tail = controlled.p99_ms < naive.p99_ms / 2.0;
  const bool damped_retries = controlled.amplification < naive.amplification;
  const bool engaged = controlled.server_shed > 0 && controlled.budget_denied > 0 &&
                       naive.server_shed == 0 && naive.server_rejected == 0;
  const bool recovers = controlled_recovery > naive_recovery;
  const bool shape_holds =
      more_goodput && tighter_tail && damped_retries && engaged && recovers;

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    const auto stack = [&out](const char* name, const OverloadRun& r,
                              std::uint64_t recovery) {
      out << "    \"" << name << "\": {\"submitted\": " << r.submitted << ", \"ok\": " << r.ok
          << ", \"failed\": " << r.failed << ", \"p99_ms\": " << format_double(r.p99_ms, 3)
          << ", \"attempts_per_op\": " << format_double(r.amplification, 3)
          << ", \"server_shed\": " << r.server_shed
          << ", \"server_rejected\": " << r.server_rejected
          << ", \"budget_denied\": " << r.budget_denied
          << ", \"deadline_giveups\": " << r.deadline_giveups
          << ", \"post_storm_ok\": " << recovery << "}";
    };
    out << "{\n  \"bench\": \"cf4_overload\",\n"
        << "  \"storm\": {\"start_ms\": " << format_double(kStormStart.ms(), 1)
        << ", \"end_ms\": " << format_double(kStormEnd.ms(), 1)
        << ", \"factor\": " << format_double(kStormFactor, 1) << "},\n  \"stacks\": {\n";
    stack("naive", naive, naive_recovery);
    out << ",\n";
    stack("controlled", controlled, controlled_recovery);
    out << "\n  },\n  \"shape_holds\": " << (shape_holds ? "true" : "false") << "\n}\n";
    std::cout << "wrote " << json_out << "\n";
  }

  std::cout << "shape check: " << (shape_holds ? "HOLDS" : "VIOLATED")
            << " (controlled stack delivers more goodput, a far tighter p99, lower retry "
               "amplification, engages its control plane, and out-recovers the naive "
               "stack after the storm)\n";
  return shape_holds ? 0 : 1;
}
