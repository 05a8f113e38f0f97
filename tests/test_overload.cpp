// Overload-control tests (DESIGN.md §14): server-side admission control
// (bounded queues, reject-at-door, CoDel-style shedding), client-side retry
// budgets, per-server circuit breakers, adaptive timeouts and end-to-end
// deadlines — plus the F5 accounting invariants and the counter fold from
// ServerStats through SimRunResult into CampaignPoint.
//
// piolint: allow-file(C2) — test bodies schedule against a stack-local
// engine/model and drain it in the same scope, so by-reference captures
// cannot outlive their frame; library code gets no such exemption.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "driver/sim_driver.hpp"
#include "eval/campaign.hpp"
#include "pfs/disk.hpp"
#include "pfs/mds.hpp"
#include "pfs/ost.hpp"
#include "pfs/pfs.hpp"
#include "pfs/resilience.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "workload/kernels.hpp"

namespace pio {
namespace {

using namespace pio::literals;

SimTime ms(double v) { return SimTime::from_ms(v); }
SimTime us(double v) { return SimTime::from_us(v); }

// ------------------------------------------------- backoff overflow (fixed)

TEST(BackoffDelayTest, LargeAttemptCountsSaturateAtMaxBackoff) {
  // Regression: the closed form base * multiplier^(attempt-1) overflows to
  // inf around attempt ~1100 (double), and 0 * inf is NaN — from_sec_ceil
  // on either is undefined behaviour. The fix grows the delay in the
  // clamped domain, so any attempt count lands exactly on max_backoff.
  pfs::RetryPolicy policy;
  policy.base_backoff = ms(1.0);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = ms(200.0);
  policy.jitter_fraction = 0.0;
  sim::Engine engine{1};
  Rng rng = engine.rng_stream(pfs::kRetryRngStream);
  for (const std::uint32_t attempt : {64u, 1000u, 1u << 20, 0xffffffffu}) {
    const SimTime delay = pfs::backoff_delay(policy, attempt, rng);
    EXPECT_EQ(delay, ms(200.0)) << "attempt " << attempt;
  }
}

TEST(BackoffDelayTest, ZeroBaseStaysZeroAtHugeAttempts) {
  // 0 * inf == NaN in the old closed form; must stay exactly zero now.
  pfs::RetryPolicy policy;
  policy.base_backoff = SimTime::zero();
  policy.backoff_multiplier = 10.0;
  policy.max_backoff = ms(200.0);
  policy.jitter_fraction = 0.0;
  sim::Engine engine{1};
  Rng rng = engine.rng_stream(pfs::kRetryRngStream);
  EXPECT_EQ(pfs::backoff_delay(policy, 0xffffffffu, rng), SimTime::zero());
}

TEST(BackoffDelayTest, ScheduleIsMonotoneUntilTheCap) {
  pfs::RetryPolicy policy;
  policy.base_backoff = ms(1.0);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = ms(50.0);
  policy.jitter_fraction = 0.0;
  sim::Engine engine{1};
  Rng rng = engine.rng_stream(pfs::kRetryRngStream);
  SimTime prev = SimTime::zero();
  for (std::uint32_t attempt = 1; attempt <= 128; ++attempt) {
    const SimTime delay = pfs::backoff_delay(policy, attempt, rng);
    EXPECT_GE(delay, prev);
    EXPECT_LE(delay, ms(50.0));
    prev = delay;
  }
  EXPECT_EQ(prev, ms(50.0));
}

TEST(BackoffDelayTest, DecayingMultiplierShrinksWithoutUnderflow) {
  pfs::RetryPolicy policy;
  policy.base_backoff = ms(8.0);
  policy.backoff_multiplier = 0.5;
  policy.max_backoff = ms(200.0);
  policy.jitter_fraction = 0.0;
  sim::Engine engine{1};
  Rng rng = engine.rng_stream(pfs::kRetryRngStream);
  EXPECT_EQ(pfs::backoff_delay(policy, 1, rng), ms(8.0));
  EXPECT_EQ(pfs::backoff_delay(policy, 2, rng), ms(4.0));
  const SimTime tiny = pfs::backoff_delay(policy, 100'000, rng);
  EXPECT_GE(tiny, SimTime::zero());
  EXPECT_LE(tiny, ms(8.0));
}

// ------------------------------------------------- to_string exhaustiveness

template <typename Enum>
void expect_distinct_names(const std::vector<Enum>& values) {
  std::set<std::string> seen;
  for (const Enum v : values) {
    const char* name = pfs::to_string(v);
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name: " << name;
  }
}

TEST(OverloadToStringTest, IoErrorNamesAreExhaustiveAndDistinct) {
  using pfs::IoError;
  expect_distinct_names<IoError>(
      {IoError::kNone, IoError::kNoEntry, IoError::kOstDown, IoError::kMdsDown,
       IoError::kTimeout, IoError::kDataLost, IoError::kStaleMap, IoError::kOverloaded,
       IoError::kCircuitOpen, IoError::kDeadlineExceeded});
}

TEST(OverloadToStringTest, ResilienceEventKindNamesAreExhaustiveAndDistinct) {
  using pfs::ResilienceEventKind;
  expect_distinct_names<ResilienceEventKind>(
      {ResilienceEventKind::kRetry, ResilienceEventKind::kTimeout,
       ResilienceEventKind::kGiveUp, ResilienceEventKind::kFailover,
       ResilienceEventKind::kDegradedRead, ResilienceEventKind::kRebuildStart,
       ResilienceEventKind::kRebuildDone, ResilienceEventKind::kStaleMapRetry,
       ResilienceEventKind::kDetectedDown, ResilienceEventKind::kDetectedUp,
       ResilienceEventKind::kBudgetExhausted, ResilienceEventKind::kBreakerOpen,
       ResilienceEventKind::kBreakerProbe, ResilienceEventKind::kBreakerClose,
       ResilienceEventKind::kDeadlineGiveUp});
}

TEST(OverloadToStringTest, AdmissionPolicyAndOstOutcomeNamesAreDistinct) {
  using pfs::AdmissionPolicy;
  using pfs::OstOutcome;
  expect_distinct_names<AdmissionPolicy>(
      {AdmissionPolicy::kUnbounded, AdmissionPolicy::kRejectAtDoor,
       AdmissionPolicy::kCodelShed});
  expect_distinct_names<OstOutcome>(
      {OstOutcome::kOk, OstOutcome::kRejectedDown, OstOutcome::kRejectedOverload,
       OstOutcome::kShed, OstOutcome::kInterrupted});
}

// --------------------------------------------------- FifoServer CoDel shed

TEST(FifoShedTest, JobsPastTheSojournTargetAreShedAtDequeue) {
  sim::Engine engine{1};
  int served = 0, shed = 0;
  sim::FifoServer server{engine, [&](sim::Handle, bool s) { ++(s ? shed : served); }, "disk"};
  server.set_shed_target(ms(1.0));
  // Head job holds the server for 10 ms; both followers wait far past the
  // 1 ms target and must be dropped at dequeue, not served.
  for (sim::Handle i = 0; i < 3; ++i) server.submit(ms(10.0), i);
  engine.run();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(server.stats().shed_jobs, 2u);
  // Sojourn histogram saw every dequeue: the served head plus both sheds.
  EXPECT_EQ(server.stats().sojourn_us.total(), 3u);
  engine.assert_drained();
}

TEST(FifoShedTest, ServerWithoutShedTargetNeverSheds) {
  sim::Engine engine{1};
  int served = 0;
  sim::FifoServer server{engine, [&](sim::Handle, bool shed) { served += shed ? 0 : 1; }, "disk"};
  server.submit(ms(5.0), 0);
  server.submit(ms(5.0), 1);  // waits 5 ms, still served
  engine.run();
  EXPECT_EQ(served, 2);
  EXPECT_EQ(server.stats().shed_jobs, 0u);
  engine.assert_drained();
}

// ------------------------------------------------------- client primitives

TEST(LatencyEstimatorTest, UnseededUsesInitialThenTracksSamples) {
  pfs::RetryPolicy policy;
  policy.initial_timeout = ms(10.0);
  policy.min_timeout = ms(1.0);
  policy.max_timeout = ms(500.0);
  pfs::LatencyEstimator est{policy};
  EXPECT_FALSE(est.seeded());
  EXPECT_EQ(est.timeout(), ms(10.0));
  // First sample: srtt = s, rttvar = s/2, so timeout = s + 4 * s/2 = 3s.
  est.observe(ms(2.0));
  EXPECT_TRUE(est.seeded());
  EXPECT_EQ(est.timeout(), ms(6.0));
  // Identical samples collapse the variance; timeout converges toward srtt
  // (clamped below by min_timeout).
  for (int i = 0; i < 200; ++i) est.observe(ms(2.0));
  EXPECT_LT(est.timeout(), ms(3.0));
  EXPECT_GE(est.timeout(), ms(1.0));
}

TEST(LatencyEstimatorTest, TimeoutClampsToConfiguredBounds) {
  pfs::RetryPolicy policy;
  policy.min_timeout = ms(5.0);
  policy.max_timeout = ms(20.0);
  pfs::LatencyEstimator est{policy};
  est.observe(us(1.0));
  EXPECT_EQ(est.timeout(), ms(5.0));  // floor
  for (int i = 0; i < 50; ++i) est.observe(ms(400.0));
  EXPECT_EQ(est.timeout(), ms(20.0));  // ceiling
}

TEST(RetryBudgetTest, BurstIsCappedAndSuccessesEarnFractions) {
  pfs::RetryBudget budget{0.5, 2.0};
  // Initial burst: exactly `cap` whole retries.
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
  // Two successes earn one retry at ratio 0.5.
  budget.deposit();
  EXPECT_FALSE(budget.try_spend());
  budget.deposit();
  EXPECT_TRUE(budget.try_spend());
  // Deposits never exceed the cap.
  for (int i = 0; i < 100; ++i) budget.deposit();
  EXPECT_EQ(budget.tokens(), 2.0);
}

TEST(CircuitBreakerTest, OpensAfterThresholdAndProbeCloses) {
  sim::Engine engine{7};
  Rng rng = engine.rng_stream(pfs::kBreakerRngStream);
  pfs::CircuitBreaker breaker{2, ms(10.0), 0.0};
  EXPECT_TRUE(breaker.admit(SimTime::zero()).allowed);
  EXPECT_FALSE(breaker.record_failure(SimTime::zero(), rng));  // 1 of 2
  EXPECT_TRUE(breaker.record_failure(SimTime::zero(), rng));   // opens
  EXPECT_EQ(breaker.state(), pfs::CircuitBreaker::State::kOpen);
  // Fast-fail inside the open window.
  EXPECT_FALSE(breaker.admit(ms(5.0)).allowed);
  // Window elapsed: exactly one probe is admitted; followers fast-fail
  // until the probe resolves.
  const auto gate = breaker.admit(ms(10.0));
  EXPECT_TRUE(gate.allowed);
  EXPECT_TRUE(gate.probe);
  EXPECT_EQ(breaker.state(), pfs::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.admit(ms(10.0)).allowed);
  // Probe success closes the breaker and traffic flows again.
  EXPECT_TRUE(breaker.record_success());
  EXPECT_EQ(breaker.state(), pfs::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.admit(ms(11.0)).allowed);
}

TEST(CircuitBreakerTest, FailedProbeReopensTheWindow) {
  sim::Engine engine{7};
  Rng rng = engine.rng_stream(pfs::kBreakerRngStream);
  pfs::CircuitBreaker breaker{1, ms(10.0), 0.0};
  EXPECT_TRUE(breaker.record_failure(SimTime::zero(), rng));
  const auto gate = breaker.admit(ms(10.0));
  ASSERT_TRUE(gate.probe);
  EXPECT_TRUE(breaker.record_failure(ms(10.0), rng));  // probe failed: re-open
  EXPECT_EQ(breaker.state(), pfs::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.admit(ms(15.0)).allowed);
}

// --------------------------------------------------- OST admission control

std::unique_ptr<pfs::DiskModel> ssd() { return pfs::make_ssd(pfs::SsdConfig{}); }

TEST(OstAdmissionTest, RejectAtDoorBouncesWithRetryAfterAndAccountsExactly) {
  sim::Engine engine{1};
  pfs::OstServer ost{engine, 0, ssd()};
  pfs::AdmissionConfig admission;
  admission.policy = pfs::AdmissionPolicy::kRejectAtDoor;
  admission.max_queue_depth = 1;
  admission.retry_after_floor = us(100.0);
  ost.set_admission(admission);
  std::uint64_t completed = 0, rejected = 0;
  SimTime max_hint = SimTime::zero();
  for (int i = 0; i < 6; ++i) {
    ost.submit(0, 1_MiB, true, [&](pfs::OstCompletion c) {
      if (c.ok()) {
        ++completed;
      } else {
        ASSERT_EQ(c.outcome, pfs::OstOutcome::kRejectedOverload);
        ++rejected;
        if (c.retry_after > max_hint) max_hint = c.retry_after;
      }
    });
  }
  engine.run();
  EXPECT_GT(completed, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GE(max_hint, us(100.0));  // hint never below the floor
  const auto& s = ost.stats();
  EXPECT_EQ(s.submitted_ops, 6u);
  EXPECT_EQ(s.overload_rejected_ops, rejected);
  // F5a: every submit resolved exactly one way.
  EXPECT_EQ(s.submitted_ops,
            s.completed_ops + s.rejected_ops + s.overload_rejected_ops + s.shed_ops +
                s.interrupted_ops);
  engine.assert_drained();
}

TEST(OstAdmissionTest, CodelShedDropsStaleQueueEntriesAtDequeue) {
  sim::Engine engine{1};
  pfs::OstServer ost{engine, 0, ssd()};
  pfs::AdmissionConfig admission;
  admission.policy = pfs::AdmissionPolicy::kCodelShed;
  admission.shed_target = us(10.0);
  ost.set_admission(admission);
  std::uint64_t completed = 0, shed = 0;
  // 16 MiB on a ~2 GiB/s SSD holds the head for ~8 ms; everything queued
  // behind waits far past the 10 µs target and is dropped at dequeue.
  for (int i = 0; i < 4; ++i) {
    ost.submit(0, 16_MiB, true, [&](pfs::OstCompletion c) {
      if (c.ok()) {
        ++completed;
      } else {
        ASSERT_EQ(c.outcome, pfs::OstOutcome::kShed);
        EXPECT_GT(c.retry_after, SimTime::zero());
        ++shed;
      }
    });
  }
  engine.run();
  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(shed, 3u);
  const auto& s = ost.stats();
  EXPECT_EQ(s.shed_ops, 3u);
  EXPECT_EQ(s.submitted_ops,
            s.completed_ops + s.rejected_ops + s.overload_rejected_ops + s.shed_ops +
                s.interrupted_ops);
  // The queue's sojourn histogram saw every dequeue.
  EXPECT_EQ(ost.queue_stats().sojourn_us.total(), 4u);
  engine.assert_drained();
}

// --------------------------------------------------- MDS admission control

pfs::PfsConfig tiny_pfs(std::uint32_t osts) {
  pfs::PfsConfig config;
  config.clients = 2;
  config.io_nodes = 1;
  config.osts = osts;
  config.disk_kind = pfs::DiskKind::kSsd;
  config.mds.default_layout = pfs::StripeLayout{Bytes::from_mib(1), osts, 0};
  return config;
}

TEST(MdsAdmissionTest, MetadataStormIsBouncedAndAccountsExactly) {
  sim::Engine engine{1};
  auto config = tiny_pfs(1);
  config.mds.service_threads = 1;
  config.admission.policy = pfs::AdmissionPolicy::kRejectAtDoor;
  config.admission.max_queue_depth = 1;
  pfs::PfsModel model{engine, config};
  std::uint64_t ok = 0, overloaded = 0;
  for (int i = 0; i < 16; ++i) {
    const FileId file = model.mds().intern("/f" + std::to_string(i));
    model.meta(0, pfs::MetaOp::kCreate, file, [&](pfs::MetaResult r) {
      if (r.ok()) {
        ++ok;
      } else {
        ASSERT_EQ(r.status, pfs::MetaStatus::kOverloaded);
        ++overloaded;
      }
    });
  }
  engine.run();
  EXPECT_GT(ok, 0u);
  EXPECT_GT(overloaded, 0u);
  EXPECT_EQ(ok + overloaded, 16u);
  const auto& m = model.mds().stats();
  EXPECT_EQ(m.overload_rejected, overloaded);
  EXPECT_EQ(m.requests, m.ops_total);  // F5a on the MDS
  // Bounced creates must not have mutated the namespace.
  EXPECT_EQ(model.mds().namespace_size(), ok + 1);  // +1 for the root dir
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(MdsAdmissionTest, CodelShedDropsAtThreadGrant) {
  sim::Engine engine{1};
  auto config = tiny_pfs(1);
  config.mds.service_threads = 1;
  config.admission.policy = pfs::AdmissionPolicy::kCodelShed;
  config.admission.shed_target = us(10.0);
  pfs::PfsModel model{engine, config};
  std::uint64_t ok = 0, overloaded = 0;
  for (int i = 0; i < 16; ++i) {
    const FileId file = model.mds().intern("/f" + std::to_string(i));
    model.meta(0, pfs::MetaOp::kCreate, file, [&](pfs::MetaResult r) {
      r.ok() ? ++ok : ++overloaded;
    });
  }
  engine.run();
  EXPECT_GT(ok, 0u);
  EXPECT_GT(overloaded, 0u);
  const auto& m = model.mds().stats();
  EXPECT_EQ(m.shed_ops, overloaded);
  EXPECT_EQ(m.requests, m.ops_total);
  EXPECT_EQ(m.sojourn_us.total(), 16u);  // every grant recorded its wait
  engine.assert_drained();
  model.assert_quiescent();
}

// ------------------------------------------------------- end-to-end client

pfs::MetaResult sync_meta(pfs::PfsModel& model, pfs::ClientId c, pfs::MetaOp op,
                          const std::string& path) {
  pfs::MetaResult out;
  model.meta(c, op, model.mds().intern(path), [&](pfs::MetaResult r) { out = std::move(r); });
  model.engine().run();
  return out;
}

pfs::IoResult sync_io(pfs::PfsModel& model, pfs::ClientId c, const std::string& path,
                      const pfs::StripeLayout& layout, std::uint64_t offset, Bytes size,
                      bool is_write) {
  pfs::IoResult out;
  model.io(c, model.mds().intern(path), layout, offset, size, is_write,
           [&](pfs::IoResult r) { out = r; });
  model.engine().run();
  return out;
}

TEST(OverloadEndToEndTest, RejectedOpsRetryAfterTheHintAndSucceed) {
  sim::Engine engine{1};
  auto config = tiny_pfs(1);
  config.admission.policy = pfs::AdmissionPolicy::kRejectAtDoor;
  config.admission.max_queue_depth = 1;
  config.retry.max_attempts = 8;
  config.retry.base_backoff = us(50.0);
  config.retry.jitter_fraction = 0.0;
  pfs::PfsModel model{engine, config};
  const auto created = sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  ASSERT_TRUE(created.ok());
  std::uint64_t ok = 0;
  std::vector<pfs::IoResult> results(8);
  for (int i = 0; i < 8; ++i) {
    model.io(0, model.mds().intern("/f"), created.inode->layout,
             static_cast<std::uint64_t>(i) << 20, 1_MiB, true, [&results, &ok, i](pfs::IoResult r) {
               results[static_cast<std::size_t>(i)] = r;
               if (r.ok) ++ok;
             });
  }
  engine.run();
  const auto& stats = model.resilience_stats();
  EXPECT_GT(stats.overload_rejections, 0u);  // the storm hit the door
  EXPECT_GT(stats.retries, 0u);              // and was absorbed by retries
  EXPECT_EQ(ok, 8u);                         // every op eventually landed
  engine.assert_drained();
  model.assert_quiescent();  // F5a across MDS + OSTs
}

TEST(OverloadEndToEndTest, RetryBudgetBoundsAmplificationUnderPersistentFailure) {
  sim::Engine engine{1};
  auto config = tiny_pfs(1);
  config.faults.ost_down(0, SimTime::zero(), SimTime::from_sec(3600.0));
  config.retry.max_attempts = 10;
  config.retry.base_backoff = us(50.0);
  config.retry.jitter_fraction = 0.0;
  config.retry.retry_budget = true;
  config.retry.budget_ratio = 0.0;  // nothing earns tokens: burst only
  config.retry.budget_cap = 2.0;
  pfs::PfsModel model{engine, config};
  const auto created = sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  ASSERT_TRUE(created.ok());
  for (int i = 0; i < 4; ++i) {
    const auto wrote = sync_io(model, 0, "/f", created.inode->layout, 0, 256_KiB, true);
    EXPECT_FALSE(wrote.ok);
  }
  const auto& stats = model.resilience_stats();
  // Without the budget this run would spend 4 * 9 = 36 retries; the bucket
  // allows exactly the burst of 2 (F5b, audited by assert_quiescent).
  EXPECT_EQ(stats.budget_spent, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_GT(stats.budget_denied, 0u);
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(OverloadEndToEndTest, BreakerFastFailsDuringOutageAndProbeRecloses) {
  sim::Engine engine{1};
  auto config = tiny_pfs(1);
  config.faults.ost_down(0, SimTime::zero(), ms(10.0));
  config.retry.breaker = true;
  config.retry.breaker_threshold = 2;
  config.retry.breaker_open_base = ms(5.0);
  config.retry.breaker_open_jitter = 0.0;
  pfs::PfsModel model{engine, config};
  const auto created = sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  ASSERT_TRUE(created.ok());
  // Two shipment failures trip the threshold-2 breaker...
  EXPECT_EQ(sync_io(model, 0, "/f", created.inode->layout, 0, 64_KiB, true).error,
            pfs::IoError::kOstDown);
  EXPECT_EQ(sync_io(model, 0, "/f", created.inode->layout, 0, 64_KiB, true).error,
            pfs::IoError::kOstDown);
  EXPECT_EQ(model.resilience_stats().breaker_opens, 1u);
  // ...and the next op never reaches the server: it fast-fails client-side.
  EXPECT_EQ(sync_io(model, 0, "/f", created.inode->layout, 0, 64_KiB, true).error,
            pfs::IoError::kCircuitOpen);
  EXPECT_GT(model.resilience_stats().breaker_fast_fails, 0u);
  // Advance past both the open window and the outage; the half-open probe
  // is admitted, succeeds, and closes the breaker.
  engine.schedule_at(ms(20.0), [] {});
  engine.run();
  const auto wrote = sync_io(model, 0, "/f", created.inode->layout, 0, 64_KiB, true);
  EXPECT_TRUE(wrote.ok);
  const auto& stats = model.resilience_stats();
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_closes, 1u);
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(OverloadEndToEndTest, DeadlineExpiresAcrossAttemptsInsteadOfResetting) {
  sim::Engine engine{1};
  auto config = tiny_pfs(1);
  config.faults.ost_down(0, SimTime::zero(), SimTime::from_sec(3600.0));
  config.retry.max_attempts = 100;
  config.retry.base_backoff = ms(2.0);
  config.retry.backoff_multiplier = 1.0;
  config.retry.jitter_fraction = 0.0;
  config.retry.op_deadline = ms(10.0);
  pfs::PfsModel model{engine, config};
  const auto created = sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  ASSERT_TRUE(created.ok());
  const auto wrote = sync_io(model, 0, "/f", created.inode->layout, 0, 64_KiB, true);
  EXPECT_FALSE(wrote.ok);
  EXPECT_EQ(wrote.error, pfs::IoError::kDeadlineExceeded);
  // The 100-attempt policy never ran anywhere near 100 attempts: the
  // deadline cut the retry loop after ~10ms / 2ms backoffs.
  EXPECT_LT(wrote.attempts, 10u);
  EXPECT_EQ(model.resilience_stats().deadline_giveups, 1u);
  EXPECT_EQ(model.resilience_stats().giveups, 0u);  // distinct give-up reason
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(OverloadEndToEndTest, AdaptiveTimeoutAbandonsOpsFarBeyondTheEstimate) {
  sim::Engine engine{1};
  auto config = tiny_pfs(1);
  config.retry.max_attempts = 2;
  config.retry.base_backoff = us(50.0);
  config.retry.jitter_fraction = 0.0;
  config.retry.adaptive_timeout = true;
  config.retry.initial_timeout = us(50.0);
  config.retry.min_timeout = us(50.0);
  pfs::PfsModel model{engine, config};
  const auto created = sync_meta(model, 0, pfs::MetaOp::kCreate, "/f");
  ASSERT_TRUE(created.ok());
  // A 16 MiB write takes ~8 ms of SSD service — two orders of magnitude
  // past the 50 µs adaptive timeout, so every attempt is abandoned.
  const auto wrote = sync_io(model, 0, "/f", created.inode->layout, 0, 16_MiB, true);
  EXPECT_FALSE(wrote.ok);
  EXPECT_EQ(wrote.error, pfs::IoError::kTimeout);
  EXPECT_GE(model.resilience_stats().timeouts, 2u);
  engine.assert_drained();
  model.assert_quiescent();
}

// ----------------------------------------------------------- counter folds

TEST(OverloadFoldTest, DriverFoldsServerAndClientOverloadCounters) {
  sim::Engine engine{3};
  auto config = tiny_pfs(2);
  config.clients = 4;
  config.admission.policy = pfs::AdmissionPolicy::kRejectAtDoor;
  config.admission.max_queue_depth = 1;
  config.retry.max_attempts = 8;
  config.retry.base_backoff = us(50.0);
  pfs::PfsModel model{engine, config};
  driver::SimRunConfig run_config;
  run_config.layout = pfs::StripeLayout{Bytes::from_mib(1), 2, 0};
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  const auto result = sim.run(*workload::ior_like(ior));
  EXPECT_GT(result.overload_rejections, 0u);
  EXPECT_GT(result.server_overload_rejected, 0u);
  EXPECT_EQ(result.server_overload_rejected,
            model.server_overload_totals().rejected);
  engine.assert_drained();
  model.assert_quiescent();
}

TEST(OverloadFoldTest, CampaignFoldsOverloadCountersIntoPointsAndReport) {
  eval::CampaignConfig config;
  config.testbed = tiny_pfs(2);
  config.testbed.clients = 4;
  config.testbed.admission.policy = pfs::AdmissionPolicy::kRejectAtDoor;
  config.testbed.admission.max_queue_depth = 1;
  config.testbed.retry.max_attempts = 8;
  config.testbed.retry.base_backoff = us(50.0);
  config.model = tiny_pfs(2);
  config.model.clients = 4;
  config.layout = pfs::StripeLayout{Bytes::from_mib(1), 2, 0};
  config.iterations = 1;
  config.seed = 5;
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  const auto w = workload::ior_like(ior);
  eval::Campaign campaign{config};
  const auto result = campaign.run({w.get()});
  driver::RunCounters total;
  for (const auto& it : result.iterations) {
    for (const auto& p : it.points) total += p;
  }
  EXPECT_GT(total.overload_rejections, 0u);
  EXPECT_GT(total.server_overload_rejected, 0u);
  EXPECT_NE(result.to_string().find("overload (measured runs):"), std::string::npos);
}

}  // namespace
}  // namespace pio
