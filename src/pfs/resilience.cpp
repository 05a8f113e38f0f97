#include "pfs/resilience.hpp"

#include <algorithm>
#include <cmath>

namespace pio::pfs {

const char* to_string(IoError error) {
  switch (error) {
    case IoError::kNone: return "none";
    case IoError::kNoEntry: return "no-entry";
    case IoError::kOstDown: return "ost-down";
    case IoError::kMdsDown: return "mds-down";
    case IoError::kTimeout: return "timeout";
    case IoError::kDataLost: return "data-lost";
    case IoError::kStaleMap: return "stale-map";
    case IoError::kOverloaded: return "overloaded";
    case IoError::kCircuitOpen: return "circuit-open";
    case IoError::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kUnbounded: return "unbounded";
    case AdmissionPolicy::kRejectAtDoor: return "reject-at-door";
    case AdmissionPolicy::kCodelShed: return "codel-shed";
  }
  return "?";
}

const char* to_string(ResilienceEventKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  return k < std::size(kResilienceKinds) ? kResilienceKinds[k].name : "?";
}

SimTime backoff_delay(const RetryPolicy& policy, std::uint32_t attempt, Rng& rng) {
  if (attempt == 0) attempt = 1;
  // Grow the delay in the clamped domain: multiply stepwise and stop the
  // moment the cap is reached. The closed form base * multiplier^(attempt-1)
  // overflows to inf at large attempt counts (and 0 * inf is NaN for a zero
  // base) *before* the max_backoff clamp can apply.
  const double cap = policy.max_backoff.sec();
  double delay_sec = policy.base_backoff.sec();
  if (policy.backoff_multiplier > 1.0) {
    if (delay_sec > 0.0) {
      for (std::uint32_t i = 1; i < attempt && delay_sec < cap; ++i) {
        delay_sec *= policy.backoff_multiplier;
      }
    }
  } else if (policy.backoff_multiplier != 1.0) {
    // Decaying (or zero) multipliers cannot overflow; the closed form is
    // safe and avoids an attempt-count-long loop toward zero.
    delay_sec *= std::pow(policy.backoff_multiplier, static_cast<double>(attempt - 1));
  }
  delay_sec = std::min(delay_sec, cap);
  if (policy.jitter_fraction > 0.0) {
    delay_sec *= 1.0 + rng.uniform(-policy.jitter_fraction, policy.jitter_fraction);
  }
  return std::max(SimTime::zero(), SimTime::from_sec_ceil(delay_sec));
}

// ---------------------------------------------------------- LatencyEstimator

void LatencyEstimator::observe(SimTime sample) {
  const double s = std::max(0.0, sample.sec());
  if (!seeded_) {
    // First sample (RFC 6298 discipline): srtt = s, rttvar = s / 2.
    srtt_sec_ = s;
    rttvar_sec_ = s / 2.0;
    seeded_ = true;
    return;
  }
  rttvar_sec_ = (1.0 - kBeta) * rttvar_sec_ + kBeta * std::abs(srtt_sec_ - s);
  srtt_sec_ = (1.0 - kAlpha) * srtt_sec_ + kAlpha * s;
}

SimTime LatencyEstimator::timeout() const {
  if (!seeded_) return initial_;
  const double rto = srtt_sec_ + kK * rttvar_sec_;
  return std::clamp(SimTime::from_sec_ceil(rto), min_, max_);
}

// ------------------------------------------------------------ CircuitBreaker

SimTime CircuitBreaker::open_window(Rng& rng) const {
  double sec = open_base_.sec();
  if (open_jitter_ > 0.0) {
    sec *= 1.0 + rng.uniform(-open_jitter_, open_jitter_);
  }
  return std::max(SimTime::from_us(1.0), SimTime::from_sec_ceil(sec));
}

CircuitBreaker::Gate CircuitBreaker::admit(SimTime now) {
  switch (state_) {
    case State::kClosed:
      return Gate{true, false};
    case State::kOpen:
      if (now < open_until_) return Gate{false, false};
      state_ = State::kHalfOpen;
      probe_in_flight_ = true;
      return Gate{true, true};
    case State::kHalfOpen:
      // One probe at a time: everything else fast-fails until it resolves.
      if (probe_in_flight_) return Gate{false, false};
      probe_in_flight_ = true;
      return Gate{true, true};
  }
  return Gate{true, false};
}

bool CircuitBreaker::record_success() {
  if (state_ == State::kHalfOpen) {
    state_ = State::kClosed;
    probe_in_flight_ = false;
    consecutive_failures_ = 0;
    return true;
  }
  consecutive_failures_ = 0;
  return false;
}

bool CircuitBreaker::record_failure(SimTime now, Rng& rng) {
  if (state_ == State::kHalfOpen) {
    // The probe failed: straight back to open for a fresh jittered window.
    state_ = State::kOpen;
    probe_in_flight_ = false;
    open_until_ = now + open_window(rng);
    return true;
  }
  if (state_ == State::kOpen) return false;  // fast-fail accounting, not new info
  if (++consecutive_failures_ >= threshold_) {
    state_ = State::kOpen;
    open_until_ = now + open_window(rng);
    return true;
  }
  return false;
}

}  // namespace pio::pfs
