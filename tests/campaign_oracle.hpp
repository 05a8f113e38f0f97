// Test-only differential oracle: the eval::Campaign::run that the single
// fan-out plus serial calibration fold replaced, kept verbatim apart from
// its name, header-only packaging and the evaluate_point/calibrate split.
// Each iteration is one pool fan-out over the sweep, and the calibration
// feedback after the merge is a barrier before the next iteration starts.
// tests/test_campaign_diff.cpp runs it and eval::Campaign over the same
// sweeps and requires bit-identical results.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "eval/campaign.hpp"
#include "exec/pool.hpp"
#include "trace/profiler.hpp"
#include "workload/op.hpp"

namespace pio::eval::oracle {

/// The per-iteration barrier loop over `sweep`.
inline CampaignResult barrier_run(const CampaignConfig& config_,
                                  const std::vector<const workload::Workload*>& sweep) {
  if (sweep.empty()) throw std::invalid_argument("Campaign::run: empty sweep");
  CampaignResult result;
  double calibration = 1.0;

  /// Everything one sweep point produces; merged in submission order below.
  struct PointOutcome {
    CampaignPoint point;
    double ratio = 0.0;
    bool has_ratio = false;
    trace::Profile profile;  // populated on the final iteration only
  };

  exec::Pool pool{static_cast<int>(config_.threads)};
  trace::Profiler final_profiler;
  for (std::uint32_t iter = 0; iter < config_.iterations; ++iter) {
    CampaignIteration iteration;
    iteration.index = iter;
    iteration.calibration_in_use = calibration;
    const bool final_iter = iter + 1 == config_.iterations;
    const double calibration_now = calibration;

    // Each workload's measure→replay→simulate chain is one independent task
    // on fresh engines with seeds derived from (seed, phase, iter, w), so
    // the sweep fans out across threads while the merged outcome stays
    // byte-identical at any thread count. The calibration feedback after
    // the merge is the per-iteration barrier.
    auto outcomes = pool.map_ordered(sweep.size(), [&, iter, final_iter,
                                                    calibration_now](std::size_t w) {
      PointOutcome out;
      trace::Profiler profiler;
      out.point = evaluate_point(config_, *sweep[w], iter, w, final_iter ? &profiler : nullptr);
      calibrate(out.point, calibration_now);
      if (out.point.simulated_raw > SimTime::zero()) {
        out.ratio = out.point.measured.sec() / out.point.simulated_raw.sec();
        out.has_ratio = true;
      }
      if (final_iter) out.profile = profiler.snapshot();
      return out;
    });

    // Merge in submission order: float accumulation order and profile merge
    // order are fixed regardless of which thread finished first.
    double ratio_sum = 0.0;
    std::size_t ratio_n = 0;
    for (PointOutcome& out : outcomes) {
      if (out.has_ratio) {
        ratio_sum += out.ratio;
        ++ratio_n;
      }
      if (final_iter) final_profiler.absorb(out.profile);
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

}  // namespace pio::eval::oracle
