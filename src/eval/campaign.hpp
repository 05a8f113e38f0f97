// PIOEval eval: the iterative evaluation loop of Fig. 4.
//
// "Traditionally, the process of understanding I/O behavior and performance
// for given applications or storage systems is performed iteratively and
// empirically in a closed loop fashion. The I/O evaluation cycle consists
// of three main phases: (1) Measurements and Statistics Collection, (2)
// Modeling and Prediction, and (3) Simulation" — with dashed feedback
// arrows between them.
//
// The Campaign operationalizes one full loop:
//   measure   — run every workload of the sweep on the *testbed* system
//               (a reference PFS configuration standing in for the real
//               machine), recording traces and profiles;
//   model     — convert each trace into a replayable workload (replay-based
//               modeling, §IV.B.3) and maintain a calibration factor for
//               the simulator;
//   simulate  — replay on the *model* system (a possibly mis-calibrated
//               PFS configuration) and predict the testbed makespan;
//   feedback  — compare prediction vs measurement, update the calibration,
//               and iterate. Prediction error must shrink across
//               iterations (experiment Fig. 4).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/sim_driver.hpp"
#include "pfs/pfs.hpp"
#include "trace/profiler.hpp"
#include "workload/op.hpp"

namespace pio::eval {

struct CampaignConfig {
  /// The reference system ("the machine we can measure").
  pfs::PfsConfig testbed{};
  /// The simulation model of it — typically coarser or mis-calibrated;
  /// the loop's job is to drive its predictions toward the measurements.
  pfs::PfsConfig model{};
  std::uint32_t iterations = 4;
  std::uint64_t seed = 1;
  /// Calibration learning rate in (0, 1]: 1 jumps straight to the observed
  /// ratio, smaller values smooth over noisy sweeps.
  double calibration_gain = 0.7;
  /// Client cache tier, applied to testbed and model runs alike — a
  /// first-class sweep axis (policy, capacity, prefetcher, scope).
  cache::CacheConfig cache{};
  /// Stripe layout for files the workloads create (the driver's create
  /// layout wins over the MDS default) — lets durability campaigns run
  /// replicated without touching each workload.
  pfs::StripeLayout layout{};
  /// Worker threads for the campaign fan-out: every (iteration, workload)
  /// measure→replay→simulate chain is one independent task on its own
  /// engines and derived seeds, all in a single fan-out. 0 resolves via
  /// exec::resolve_threads (PIO_THREADS, else serial). The CampaignResult is
  /// byte-identical at any thread count; calibration is a serial post-pass.
  std::uint32_t threads = 0;
};

/// One sweep point in one iteration. The RunCounters base holds the
/// counters of the measurement (testbed) run.
struct CampaignPoint : driver::RunCounters {
  std::string workload;
  SimTime measured = SimTime::zero();
  SimTime simulated_raw = SimTime::zero();   ///< model output before calibration
  SimTime predicted = SimTime::zero();       ///< calibrated prediction
  [[nodiscard]] double abs_pct_error() const {
    if (measured <= SimTime::zero()) return 0.0;
    return std::abs(predicted.sec() - measured.sec()) / measured.sec();
  }
};

struct CampaignIteration {
  std::uint32_t index = 0;
  double calibration_in_use = 1.0;
  std::vector<CampaignPoint> points;
  [[nodiscard]] double mean_abs_pct_error() const;
};

struct CampaignResult {
  std::vector<CampaignIteration> iterations;
  double final_calibration = 1.0;
  /// Darshan-like profile of the final measurement pass.
  trace::Profile profile;
  [[nodiscard]] std::string to_string() const;
  /// True when the error sequence is non-increasing from first to last.
  [[nodiscard]] bool converged() const;
};

/// Evaluate one sweep point: measure `workload` on the testbed, derive a
/// replay workload from the trace, simulate the replay on the model, and
/// fold every counter into a calibration-free CampaignPoint (`predicted ==
/// simulated_raw`; `calibrate` applies a factor afterwards). This is the
/// body of one Campaign::run task, exposed so the campaign service
/// (DESIGN.md §15) can compute points one at a time with byte-identical
/// results: seeds derive from `derive_seed(config.seed, phase, iteration,
/// index)` exactly as inside `Campaign::run`. When `profiler` is non-null
/// it observes the measurement pass (the final-iteration profile path).
[[nodiscard]] CampaignPoint evaluate_point(const CampaignConfig& config,
                                           const workload::Workload& workload,
                                           std::uint32_t iteration, std::uint64_t index,
                                           trace::Profiler* profiler = nullptr);

/// Set `point.predicted` to `simulated_raw` scaled by `calibration`
/// (truncated to whole ns); reads no other field and writes no other.
void calibrate(CampaignPoint& point, double calibration);

/// The per-point determinism digest: an FNV-1a fold of the campaign seed,
/// the workload name, the three times and the RunCounters in field order.
/// Two equal digests mean byte-identical points — this is the service
/// result cache's byte-identity oracle, and its value is pinned by tests, so
/// the order is frozen: new counters append to RunCounters, never reorder.
[[nodiscard]] std::uint64_t point_digest(const CampaignConfig& config,
                                         const CampaignPoint& point);

/// The whole-campaign determinism digest: per iteration its index, the
/// calibration in use and one point_digest per point, then the final
/// calibration and every field of every final-profile record. Equal at any
/// thread count (tests/test_exec.cpp) and pinned by the C-12 golden.
[[nodiscard]] std::uint64_t digest(const CampaignConfig& config, const CampaignResult& result);

class Campaign {
 public:
  explicit Campaign(CampaignConfig config) : config_(std::move(config)) {}

  /// Run the full closed loop over a sweep of workloads. The workloads are
  /// borrowed and must be re-streamable (every Workload in this library is).
  CampaignResult run(const std::vector<const workload::Workload*>& sweep);

 private:
  CampaignConfig config_;
};

}  // namespace pio::eval
