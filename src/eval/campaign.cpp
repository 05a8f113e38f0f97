#include "eval/campaign.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/fnv.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "replay/trace_workload.hpp"
#include "trace/profiler.hpp"
#include "trace/tracer.hpp"

namespace pio::eval {

double CampaignIteration::mean_abs_pct_error() const {
  if (points.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& p : points) acc += p.abs_pct_error();
  return acc / static_cast<double>(points.size());
}

bool CampaignResult::converged() const {
  if (iterations.size() < 2) return true;
  return iterations.back().mean_abs_pct_error() <= iterations.front().mean_abs_pct_error();
}

std::string CampaignResult::to_string() const {
  std::ostringstream out;
  out << "# evaluation campaign (Fig. 4 closed loop)\n";
  TextTable table{{"iteration", "calibration", "mean |error|"}};
  for (const auto& it : iterations) {
    table.add_row({std::to_string(it.index), format_double(it.calibration_in_use, 4),
                   format_percent(it.mean_abs_pct_error())});
  }
  out << table.to_string();
  out << "final calibration factor: " << format_double(final_calibration, 4) << "\n";
  driver::RunCounters t;
  for (const auto& it : iterations) {
    for (const auto& p : it.points) t += p;
  }
  if (t.failed_ops + t.retries + t.timeouts + t.giveups + t.failovers > 0) {
    out << "resilience (measured runs): failed_ops=" << t.failed_ops << " retries=" << t.retries
        << " timeouts=" << t.timeouts << " giveups=" << t.giveups << " failovers=" << t.failovers
        << "\n";
  }
  if (t.degraded_reads + t.data_lost_ops + t.rebuilds_completed + t.rebuilt_bytes.count() > 0) {
    out << "durability (measured runs): degraded_reads=" << t.degraded_reads
        << " data_lost_ops=" << t.data_lost_ops << " rebuilds_completed=" << t.rebuilds_completed
        << " rebuilt=" << format_bytes(t.rebuilt_bytes) << "\n";
  }
  if (t.stale_map_retries + t.map_refreshes + t.down_detections +
          t.migration_marked_bytes.count() > 0) {
    out << "membership (measured runs): stale_map_retries=" << t.stale_map_retries
        << " map_refreshes=" << t.map_refreshes << " down_detections=" << t.down_detections
        << " migration_marked=" << format_bytes(t.migration_marked_bytes) << "\n";
  }
  if (t.overload_rejections + t.budget_denied + t.breaker_opens + t.breaker_fast_fails +
          t.deadline_giveups + t.server_overload_rejected + t.server_shed > 0) {
    out << "overload (measured runs): rejected=" << t.overload_rejections
        << " budget_denied=" << t.budget_denied << " breaker_opens=" << t.breaker_opens
        << " fast_fails=" << t.breaker_fast_fails << " deadline_giveups=" << t.deadline_giveups
        << " server_rejected=" << t.server_overload_rejected
        << " server_shed=" << t.server_shed << "\n";
  }
  if (t.cache_hits + t.cache_misses > 0) {
    out << "cache (measured runs): hits=" << t.cache_hits << " misses=" << t.cache_misses
        << " hit_rate=" << format_percent(t.cache_hit_rate()) << " prefetch="
        << t.cache_prefetch_issued << "/" << t.cache_prefetch_used << "/"
        << t.cache_prefetch_wasted << " (issued/used/wasted) writebacks=" << t.cache_writebacks
        << " absorbed_writes=" << t.cache_absorbed_writes << "\n";
  }
  return out.str();
}

namespace {

/// Seed-split phases (see pio::derive_seed): testbed measurement and
/// model simulation draw from disjoint streams for every (iteration,
/// workload) coordinate — `seed + iter` / `seed + 1000 + iter` arithmetic
/// collided at >= 1000 iterations.
enum SeedPhase : std::uint64_t { kMeasurePhase = 1, kSimulatePhase = 2 };

/// One execution-driven run on a fresh engine + PFS instance.
driver::SimRunResult run_on(const CampaignConfig& config, const pfs::PfsConfig& system,
                            const workload::Workload& workload, std::uint64_t seed,
                            trace::Sink* sink) {
  sim::Engine engine{seed};
  pfs::PfsModel model{engine, system};
  driver::SimRunConfig run_config;
  run_config.cache = config.cache;
  run_config.layout = config.layout;
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  auto result = sim.run(workload, sink);
  // A leftover event here would mean the model leaked state into the next
  // measurement — exactly the kind of bug that corrupts replay fidelity.
  engine.assert_drained();
  // Invariant F2: every op abandoned by a retry timeout drained cleanly.
  model.assert_quiescent();
  return result;
}

}  // namespace

CampaignPoint evaluate_point(const CampaignConfig& config, const workload::Workload& workload,
                             std::uint32_t iteration, std::uint64_t index,
                             trace::Profiler* profiler) {
  // Phase 1: measure on the testbed. The trace is the collected statistic;
  // the profiler only matters on the caller's final-iteration pass.
  trace::Tracer tracer;
  trace::MultiSink sinks;
  sinks.add(tracer);
  if (profiler != nullptr) sinks.add(*profiler);
  const auto measured = run_on(config, config.testbed, workload,
                               derive_seed(config.seed, kMeasurePhase, iteration, index), &sinks);

  // Phase 2: model — replay-based workload from the measured trace.
  replay::TraceReplayConfig replay_config;
  const auto replayable = replay::workload_from_trace(tracer.take(), replay_config);

  // Phase 3: simulate the replay on the model system.
  const auto simulated =
      run_on(config, config.model, *replayable,
             derive_seed(config.seed, kSimulatePhase, iteration, index), nullptr);

  CampaignPoint point;
  point.workload = workload.name();
  point.measured = measured.makespan;
  point.simulated_raw = simulated.makespan;
  point.predicted = simulated.makespan;
  static_cast<driver::RunCounters&>(point) = measured;
  return point;
}

void calibrate(CampaignPoint& point, double calibration) {
  point.predicted = SimTime::from_ns(
      static_cast<std::int64_t>(static_cast<double>(point.simulated_raw.ns()) * calibration));
}

std::uint64_t point_digest(const CampaignConfig& config, const CampaignPoint& point) {
  Fnv64 h;
  h.mix(config.seed);
  h.mix(point.workload);
  h.mix(static_cast<std::uint64_t>(point.measured.ns()));
  h.mix(static_cast<std::uint64_t>(point.simulated_raw.ns()));
  h.mix(static_cast<std::uint64_t>(point.predicted.ns()));
  driver::for_each_counter(point, [&h](std::string_view, auto v) {
    h.mix(driver::counter_value(v));
  });
  return h.digest();
}

std::uint64_t digest(const CampaignConfig& config, const CampaignResult& result) {
  Fnv64 h;
  for (const auto& iteration : result.iterations) {
    h.mix(iteration.index);
    h.mix(static_cast<std::uint64_t>(iteration.calibration_in_use * 1e12));
    for (const auto& p : iteration.points) h.mix(point_digest(config, p));
  }
  h.mix(static_cast<std::uint64_t>(result.final_calibration * 1e12));
  for (const auto& record : result.profile.records()) {
    h.mix(static_cast<std::uint64_t>(record.rank));
    h.mix(record.path);
    for (const std::uint64_t v : {record.opens, record.reads, record.writes, record.metadata_ops,
                                  record.bytes_read.count(), record.bytes_written.count(),
                                  record.sequential_reads, record.sequential_writes}) {
      h.mix(v);
    }
  }
  return h.digest();
}

CampaignResult Campaign::run(const std::vector<const workload::Workload*>& sweep) {
  if (sweep.empty()) throw std::invalid_argument("Campaign::run: empty sweep");
  const std::size_t n = sweep.size();

  /// Everything one sweep point produces; folded in submission order below.
  struct PointOutcome {
    CampaignPoint point;
    trace::Profile profile;  // populated on the final iteration only
  };

  // Calibration never reaches the measure and simulate runs, so every
  // (iteration, workload) chain is one independent task: task k is
  // iteration k / n, workload k % n, on fresh engines with seeds derived
  // from (seed, phase, iter, w). One fan-out covers the whole campaign.
  exec::Pool pool{static_cast<int>(config_.threads)};
  auto outcomes =
      pool.map_ordered(std::size_t{config_.iterations} * n, [&](std::size_t k) {
        const auto iter = static_cast<std::uint32_t>(k / n);
        const bool final_iter = iter + 1 == config_.iterations;
        PointOutcome out;
        trace::Profiler profiler;
        out.point = evaluate_point(config_, *sweep[k % n], iter, k % n,
                                   final_iter ? &profiler : nullptr);
        if (final_iter) out.profile = profiler.snapshot();
        return out;
      });

  // Serial fold in submission order: the calibration recurrence, float
  // accumulation order and profile merge order are fixed regardless of
  // which thread finished first.
  CampaignResult result;
  double calibration = 1.0;
  trace::Profiler final_profiler;
  for (std::uint32_t iter = 0; iter < config_.iterations; ++iter) {
    CampaignIteration iteration;
    iteration.index = iter;
    iteration.calibration_in_use = calibration;
    double ratio_sum = 0.0;
    std::size_t ratio_n = 0;
    for (std::size_t w = 0; w < n; ++w) {
      PointOutcome& out = outcomes[std::size_t{iter} * n + w];
      calibrate(out.point, calibration);
      if (out.point.simulated_raw > SimTime::zero()) {
        ratio_sum += out.point.measured.sec() / out.point.simulated_raw.sec();
        ++ratio_n;
      }
      if (iter + 1 == config_.iterations) final_profiler.absorb(out.profile);
      iteration.points.push_back(std::move(out.point));
    }
    result.iterations.push_back(std::move(iteration));

    // Feedback: move the calibration toward the observed mean ratio.
    if (ratio_n > 0) {
      const double observed = ratio_sum / static_cast<double>(ratio_n);
      calibration += config_.calibration_gain * (observed - calibration);
    }
  }
  result.final_calibration = calibration;
  result.profile = final_profiler.snapshot();
  return result;
}

}  // namespace pio::eval
