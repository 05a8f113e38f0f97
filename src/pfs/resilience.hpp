// PIOEval storage substrate: client-side resilience for the data path.
//
// Real I/O middleware does not surface every server hiccup to the
// application: clients retry with capped exponential backoff, time out
// stuck requests, and (when the layout allows) route around dead OSTs.
// This header defines the policy knobs, the counters and the event kinds,
// each kind declared once in kResilienceKinds; the mechanics live in
// PfsModel::io. All jitter draws from a seeded engine substream so fault
// campaigns replay byte-identically (piolint D1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "common/rng.hpp"
#include "common/seed_streams.hpp"
#include "common/types.hpp"

namespace pio::pfs {

/// Engine Rng stream id reserved for retry backoff jitter; claimed in the
/// seed-stream registry (common/seed_streams.hpp, rule S1).
inline constexpr std::uint64_t kRetryRngStream = seeds::kRetryJitterStream;

/// Engine Rng stream id reserved for circuit-breaker open-window jitter;
/// claimed in the seed-stream registry (common/seed_streams.hpp, rule S1).
inline constexpr std::uint64_t kBreakerRngStream = seeds::kBreakerProbeStream;

/// Why a data-path operation failed. kNone means success.
enum class IoError : std::uint8_t {
  kNone,
  kNoEntry,   ///< path never created at the MDS (or is a directory)
  kOstDown,   ///< a touched OST was down and no failover was possible
  kMdsDown,   ///< metadata service unreachable
  kTimeout,   ///< the op exceeded RetryPolicy::op_timeout on every attempt
  kDataLost,  ///< no replica holds the acknowledged data (durability breach)
  kStaleMap,  ///< addressed an OST through an outdated ClusterMap epoch;
              ///< refresh the map and retry (DESIGN.md §13)
  kOverloaded,        ///< server admission control rejected or shed the op;
                      ///< carries a retry-after hint (DESIGN.md §14)
  kCircuitOpen,       ///< the client's per-server circuit breaker fast-failed
                      ///< the op without touching the server
  kDeadlineExceeded,  ///< the op's end-to-end deadline expired across attempts
};

[[nodiscard]] const char* to_string(IoError error);

/// Server-side admission policy for bounded queues (DESIGN.md §14).
enum class AdmissionPolicy : std::uint8_t {
  kUnbounded,     ///< legacy behaviour: the queue grows without limit
  kRejectAtDoor,  ///< bounce arrivals once the queue depth reaches the bound
  kCodelShed,     ///< admit at the door, drop at dequeue once the job's
                  ///< queueing delay exceeds the sojourn target (CoDel-style)
};

[[nodiscard]] const char* to_string(AdmissionPolicy policy);

/// Admission-control knobs shared by OstServer and MetadataServer. The
/// default policy is kUnbounded, which preserves pre-overload semantics
/// bit-for-bit (no door checks, no sheds, no extra draws).
struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kUnbounded;
  /// kRejectAtDoor: arrivals finding this many ops queued are bounced with
  /// IoError::kOverloaded and a retry-after hint.
  std::uint64_t max_queue_depth = 64;
  /// kCodelShed: an op whose queueing delay exceeds this when it reaches the
  /// head of the queue is dropped without service.
  SimTime shed_target = SimTime::from_ms(5.0);
  /// Lower bound on the retry-after hint attached to rejections.
  SimTime retry_after_floor = SimTime::from_ms(1.0);

  [[nodiscard]] bool enabled() const { return policy != AdmissionPolicy::kUnbounded; }
};

/// Client-side retry/degraded-mode policy for PfsModel::io. The default is
/// fail-fast: one attempt, no timeout, no failover — faults surface as
/// IoResult{ok=false} so measurement tools see the raw weather.
struct RetryPolicy {
  std::uint32_t max_attempts = 1;  ///< total attempts; 1 = no retries
  SimTime base_backoff = SimTime::from_ms(1.0);
  double backoff_multiplier = 2.0;
  SimTime max_backoff = SimTime::from_ms(200.0);
  /// Uniform +/- fraction applied to each backoff (decorrelates retry storms
  /// across clients); draws from the kRetryRngStream engine substream.
  double jitter_fraction = 0.2;
  /// Per-attempt timeout; zero disables. A timed-out attempt is abandoned
  /// (its in-flight events drain as orphans) and retried or given up.
  SimTime op_timeout = SimTime::zero();
  /// Degraded-mode striping: reroute chunks addressed to a down OST to the
  /// next healthy one at dispatch time.
  bool failover = false;

  // -- overload-control knobs (all off by default; DESIGN.md §14) ----------

  /// Adaptive per-attempt timeouts from the EWMA+variance latency estimator
  /// (Jacobson/Karels): timeout = clamp(srtt + 4 * rttvar). Replaces the
  /// fixed op_timeout while enabled; initial_timeout is used until the
  /// estimator has seen a successful attempt.
  bool adaptive_timeout = false;
  SimTime initial_timeout = SimTime::from_ms(10.0);
  SimTime min_timeout = SimTime::from_ms(1.0);
  SimTime max_timeout = SimTime::from_ms(500.0);

  /// End-to-end deadline: the op's remaining budget shrinks across attempts
  /// instead of resetting — each attempt's timeout is capped to what is
  /// left, and a retry that cannot start before the deadline gives up with
  /// kDeadlineExceeded. Zero disables.
  SimTime op_deadline = SimTime::zero();

  /// Token-bucket retry budget: retries are capped to a fraction of
  /// successful traffic (each success deposits budget_ratio tokens, each
  /// retry spends one, burst bounded by budget_cap), killing retry
  /// amplification under overload. Stale-map retries are exempt — they are
  /// a metadata protocol step, not recovery traffic.
  bool retry_budget = false;
  double budget_ratio = 0.2;
  double budget_cap = 10.0;

  /// Per-server circuit breakers (closed/open/half-open): after
  /// breaker_threshold consecutive shipment failures a server's breaker
  /// opens and chunks addressed to it fast-fail with kCircuitOpen for a
  /// jittered open window, after which a single half-open probe decides
  /// between closing and re-opening. Jitter draws from kBreakerRngStream.
  bool breaker = false;
  std::uint32_t breaker_threshold = 5;
  SimTime breaker_open_base = SimTime::from_ms(50.0);
  double breaker_open_jitter = 0.2;

  [[nodiscard]] bool retries_enabled() const { return max_attempts > 1; }
};

/// Jacobson/Karels RTT estimator driving adaptive per-attempt timeouts:
/// srtt and rttvar are EWMAs of successful attempt latencies, and the
/// timeout is srtt + kK * rttvar clamped to [min_timeout, max_timeout].
/// Until the first sample the configured initial_timeout applies.
class LatencyEstimator {
 public:
  static constexpr double kAlpha = 0.125;  ///< weight of a new sample in srtt
  static constexpr double kBeta = 0.25;    ///< weight of a new deviation in rttvar
  static constexpr double kK = 4.0;        ///< timeout = srtt + kK * rttvar

  LatencyEstimator() = default;
  explicit LatencyEstimator(const RetryPolicy& policy)
      : initial_(policy.initial_timeout),
        min_(policy.min_timeout),
        max_(policy.max_timeout) {}

  void observe(SimTime sample);

  /// Current per-attempt timeout (clamped; initial_timeout when unseeded).
  [[nodiscard]] SimTime timeout() const;
  [[nodiscard]] bool seeded() const { return seeded_; }
  [[nodiscard]] SimTime srtt() const { return SimTime::from_sec_ceil(srtt_sec_); }
  [[nodiscard]] SimTime rttvar() const { return SimTime::from_sec_ceil(rttvar_sec_); }

 private:
  SimTime initial_ = SimTime::from_ms(10.0);
  SimTime min_ = SimTime::from_ms(1.0);
  SimTime max_ = SimTime::from_ms(500.0);
  bool seeded_ = false;
  double srtt_sec_ = 0.0;
  double rttvar_sec_ = 0.0;
};

/// Token-bucket retry budget (Finagle/gRPC discipline): successes earn
/// fractional tokens, each retry spends a whole one, and the bucket is
/// capped — so sustained retry traffic can never exceed ratio * goodput
/// plus the initial burst. Counter bookkeeping lives with the caller.
class RetryBudget {
 public:
  RetryBudget() = default;
  RetryBudget(double ratio, double cap)
      : ratio_(ratio), cap_(cap), tokens_(cap) {}

  /// A logical op succeeded: earn ratio tokens (capped).
  void deposit() { tokens_ = tokens_ + ratio_ > cap_ ? cap_ : tokens_ + ratio_; }
  /// Try to pay for one retry; false = budget exhausted, do not retry.
  [[nodiscard]] bool try_spend() {
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }
  [[nodiscard]] double tokens() const { return tokens_; }

 private:
  double ratio_ = 0.2;
  double cap_ = 10.0;
  double tokens_ = 10.0;
};

/// Per-server circuit breaker: closed (counting consecutive failures) ->
/// open (fast-fail for a jittered window) -> half-open (one probe decides).
/// Transition bookkeeping is returned to the caller so counters and events
/// stay in PfsModel's ResilienceStats.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  CircuitBreaker(std::uint32_t threshold, SimTime open_base, double open_jitter)
      : threshold_(threshold), open_base_(open_base), open_jitter_(open_jitter) {}

  struct Gate {
    bool allowed = true;
    bool probe = false;  ///< this admission is the half-open probe
  };

  /// May a request be sent to this server at `now`? Transitions open ->
  /// half-open once the open window has elapsed (that admission is the
  /// single probe; further requests fast-fail until it resolves).
  [[nodiscard]] Gate admit(SimTime now);

  /// Record a shipment success. Returns true when the breaker closed
  /// (a half-open probe succeeded).
  bool record_success();

  /// Record a shipment failure. Returns true when the breaker (re)opened;
  /// the open window is open_base jittered via `rng` (kBreakerRngStream).
  bool record_failure(SimTime now, Rng& rng);

  [[nodiscard]] State state() const { return state_; }

 private:
  [[nodiscard]] SimTime open_window(Rng& rng) const;

  std::uint32_t threshold_ = 5;
  SimTime open_base_ = SimTime::from_ms(50.0);
  double open_jitter_ = 0.2;
  State state_ = State::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  SimTime open_until_ = SimTime::zero();
};

/// Deterministic capped exponential backoff with seeded jitter. `attempt` is
/// the 1-based index of the attempt that just failed (so the first retry
/// waits ~base_backoff). Always returns a non-negative time.
[[nodiscard]] SimTime backoff_delay(const RetryPolicy& policy, std::uint32_t attempt, Rng& rng);

/// The client-layer rows of a run's counter table (driver::RunCounters):
/// declared here, counted by PfsModel, and inherited by the run's result.
struct ClientCounters {
  std::uint64_t retries = 0;     ///< attempts that were retried
  std::uint64_t timeouts = 0;    ///< attempts abandoned by op_timeout
  std::uint64_t giveups = 0;     ///< ops failed after exhausting retries
  std::uint64_t failovers = 0;   ///< chunks rerouted around a down OST
  // Durability (zero unless DurabilityConfig::track_contents; DESIGN.md §9).
  std::uint64_t degraded_reads = 0;     ///< chunk reads served by a fallback replica
  std::uint64_t data_lost_ops = 0;      ///< ops failed with kDataLost
  std::uint64_t rebuilds_completed = 0; ///< OST resync passes drained
  Bytes rebuilt_bytes = Bytes::zero();  ///< total bytes re-copied by resync
  // Cluster-membership counters (all zero when ClusterMapConfig::enabled is
  // false; see DESIGN.md §13).
  std::uint64_t stale_map_retries = 0;  ///< ops bounced by kStaleMap and retried
  std::uint64_t map_refreshes = 0;      ///< client map-refresh round trips
  std::uint64_t down_detections = 0;    ///< monitor down declarations (grace expiry)
  /// Bytes scheduled for migration by epoch changes (re-marks of ranges
  /// still owed across consecutive epochs count each time).
  Bytes migration_marked_bytes = Bytes::zero();
  // Overload-control counters (all zero unless the corresponding admission /
  // budget / breaker / deadline knobs are enabled; DESIGN.md §14).
  std::uint64_t overload_rejections = 0; ///< attempts that failed with kOverloaded
  std::uint64_t budget_denied = 0;       ///< retries denied (bucket empty)
  std::uint64_t breaker_opens = 0;       ///< breaker open/re-open transitions
  std::uint64_t breaker_fast_fails = 0;  ///< chunks fast-failed by an open breaker
  std::uint64_t deadline_giveups = 0;    ///< ops settled with kDeadlineExceeded
};

/// Every client-side resilience + durability counter of one PfsModel: the
/// reported ClientCounters plus the rows no run reports.
struct ResilienceStats : ClientCounters {
  std::uint64_t attempts = 0;          ///< data-path attempts started
  std::uint64_t failed_ops = 0;        ///< io() completions with ok == false
  std::uint64_t rebuilds_started = 0;  ///< OST resync passes begun
  std::uint64_t up_detections = 0;     ///< monitor up re-declarations (beat resumed)
  std::uint64_t budget_deposits = 0;   ///< successful ops that earned budget
  std::uint64_t budget_spent = 0;      ///< retries paid for by the budget
  std::uint64_t breaker_closes = 0;    ///< half-open probes that closed a breaker
  std::uint64_t breaker_probes = 0;    ///< half-open probes admitted
};

/// Client-side resilience / durability event: the kind of a client-layer
/// obs::Span. kDegradedRead and the rebuild pair distinguish *masked*
/// failures (a replica absorbed the fault) from real ones. A new kind is one
/// value here, its row in kResilienceKinds and its ResilienceStats field.
enum class ResilienceEventKind : std::uint8_t {
  kRetry,
  kTimeout,
  kGiveUp,
  kFailover,
  kDegradedRead,  ///< read served by a non-primary replica (primary down/stale)
  kRebuildStart,  ///< a recovered OST began resyncing missed chunks
  kRebuildDone,   ///< the resync drained (bytes = total re-copied)
  kStaleMapRetry, ///< a kStaleMap rejection triggered a map refresh + retry
  kDetectedDown,  ///< the monitor declared an OST down (heartbeat grace expired)
  kDetectedUp,    ///< the monitor saw a heartbeat from a down OST again
  kBudgetExhausted, ///< a retry was denied by the token-bucket retry budget
  kBreakerOpen,     ///< a per-server circuit breaker opened (or re-opened)
  kBreakerProbe,    ///< a half-open breaker admitted its single probe
  kBreakerClose,    ///< a probe succeeded and the breaker closed
  kDeadlineGiveUp,  ///< the op's end-to-end deadline expired across attempts
  kCount,           ///< the number of kinds; not a kind
};

/// What one ResilienceEventKind is: the ResilienceStats row PfsModel::note
/// bumps for it, and its name.
struct ResilienceKindRow {
  std::uint64_t ResilienceStats::*row;
  const char* name;
};

/// One row per ResilienceEventKind, in enum order.
inline constexpr ResilienceKindRow kResilienceKinds[] = {
    {&ResilienceStats::retries, "retry"},
    {&ResilienceStats::timeouts, "timeout"},
    {&ResilienceStats::giveups, "giveup"},
    {&ResilienceStats::failovers, "failover"},
    {&ResilienceStats::degraded_reads, "degraded-read"},
    {&ResilienceStats::rebuilds_started, "rebuild-start"},
    {&ResilienceStats::rebuilds_completed, "rebuild-done"},
    {&ResilienceStats::stale_map_retries, "stale-map-retry"},
    {&ResilienceStats::down_detections, "detected-down"},
    {&ResilienceStats::up_detections, "detected-up"},
    {&ResilienceStats::budget_denied, "budget-exhausted"},
    {&ResilienceStats::breaker_opens, "breaker-open"},
    {&ResilienceStats::breaker_probes, "breaker-probe"},
    {&ResilienceStats::breaker_closes, "breaker-close"},
    {&ResilienceStats::deadline_giveups, "deadline-giveup"},
};
static_assert(std::size(kResilienceKinds) == static_cast<std::size_t>(ResilienceEventKind::kCount));

[[nodiscard]] const char* to_string(ResilienceEventKind kind);

}  // namespace pio::pfs
