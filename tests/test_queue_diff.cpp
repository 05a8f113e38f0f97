// Differential test for sim::FifoServer and sim::TokenPool, which hand each
// job's or waiter's token to one sink registered at construction, against
// the callback-per-job primitives they replaced (tests/queue_oracle.hpp).
//
// Both sides run the same seeded storms on an engine of their own:
//  - FIFO jobs with random and same-instant arrivals, zero and non-zero
//    service times, the shed target on and off, and follow-up jobs
//    submitted from inside a completion;
//  - token requests of 1 to pool-size tokens, follow-up requests acquired
//    from inside a grant, and each grant's tokens returned in random pieces
//    out of step with the requests: some inside the grant itself (as the
//    MDS does when it sheds), some on later events.
// The oracle submits every job with a shed callback when the target is on,
// as the OST does under CoDel shedding, and none when it is off. The run
// must match exactly: every job's completion ns and served-vs-shed, the
// grant order and grant ns, the interleaved order of all sink calls, every
// ServerStats field (each sojourn bucket included), the end state and the
// engine's executed event count.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "queue_oracle.hpp"
#include "sim/engine.hpp"
#include "sim/records.hpp"
#include "sim/resources.hpp"

namespace pio {
namespace {

using sim::Engine;
using sim::Handle;

/// A piece of a grant's tokens going back to the pool.
struct Release {
  std::uint64_t n;
  bool inside_grant;  ///< released synchronously from the grant itself
  SimTime delay;      ///< otherwise: this long after the grant
};

struct Storm {
  SimTime shed_target = SimTime::zero();  ///< zero: shedding off
  std::vector<SimTime> job_arrival;       ///< unused for follow-up jobs
  std::vector<SimTime> job_service;
  std::vector<std::vector<Handle>> job_followups;  ///< submitted when job i resolves
  std::vector<bool> job_is_followup;
  std::uint64_t pool_size = 1;
  std::vector<SimTime> req_arrival;  ///< unused for follow-up requests
  std::vector<std::uint64_t> req_n;
  std::vector<std::vector<Handle>> req_followups;  ///< acquired when request i is granted
  std::vector<bool> req_is_followup;
  std::vector<std::vector<Release>> req_releases;
};

/// Arrival times over [0, span), about a third of them in same-instant
/// batches with the previous arrival.
std::vector<SimTime> arrivals(Rng& rng, std::size_t count, double span_ns) {
  std::vector<SimTime> out;
  for (std::size_t i = 0; i < count; ++i) {
    const bool batch = i > 0 && rng.chance(0.3);
    out.push_back(batch ? out.back()
                        : SimTime::from_ns(static_cast<std::int64_t>(rng.uniform(0.0, span_ns))));
  }
  return out;
}

/// Marks about one entry in eight as a follow-up of a random earlier entry.
void pick_followups(Rng& rng, std::size_t count, std::vector<std::vector<Handle>>& followups,
                    std::vector<bool>& is_followup) {
  followups.assign(count, {});
  is_followup.assign(count, false);
  for (std::size_t i = 1; i < count; ++i) {
    if (!rng.chance(0.125)) continue;
    is_followup[i] = true;
    followups[rng.next_below(i)].push_back(static_cast<Handle>(i));
  }
}

Storm make_storm(std::uint64_t seed) {
  Rng rng{seed};
  Storm s;
  // FIFO side: offered load from 0.3 to 1.5 of the server, so queues range
  // from empty to long standing backlogs.
  const std::size_t jobs = 20 + rng.next_below(300);
  const double mean_service_ns = rng.uniform(1'000.0, 100'000.0);
  for (std::size_t i = 0; i < jobs; ++i) {
    s.job_service.push_back(rng.chance(0.2) ? SimTime::zero()
                                            : SimTime::from_ns(static_cast<std::int64_t>(
                                                  rng.exponential(mean_service_ns))));
  }
  const double load = rng.uniform(0.3, 1.5);
  s.job_arrival = arrivals(rng, jobs, static_cast<double>(jobs) * mean_service_ns / load);
  if (seed % 3 != 0) {
    s.shed_target =
        SimTime::from_ns(static_cast<std::int64_t>(mean_service_ns * rng.uniform(0.5, 8.0)));
  }
  pick_followups(rng, jobs, s.job_followups, s.job_is_followup);

  // Token side.
  s.pool_size = 1 + rng.next_below(8);
  const std::size_t reqs = 20 + rng.next_below(200);
  const double mean_hold_ns = rng.uniform(1'000.0, 50'000.0);
  for (std::size_t i = 0; i < reqs; ++i) {
    const std::uint64_t n = 1 + rng.next_below(rng.chance(0.5) ? 1 : s.pool_size);
    s.req_n.push_back(n);
    std::vector<Release> pieces;
    for (std::uint64_t left = n; left > 0;) {
      const std::uint64_t piece = 1 + rng.next_below(left);
      left -= piece;
      const bool inside = rng.chance(0.15);
      const SimTime delay = rng.chance(0.2) ? SimTime::zero()
                                            : SimTime::from_ns(static_cast<std::int64_t>(
                                                  rng.exponential(mean_hold_ns)));
      pieces.push_back(Release{piece, inside, delay});
    }
    s.req_releases.push_back(std::move(pieces));
  }
  s.req_arrival = arrivals(rng, reqs, static_cast<double>(reqs) * mean_hold_ns /
                                          rng.uniform(0.5, 3.0));
  pick_followups(rng, reqs, s.req_followups, s.req_is_followup);
  return s;
}

/// What a run observed.
struct Outcome {
  std::vector<std::int64_t> job_ns;  ///< completion or shed time
  std::vector<int> job_shed;         ///< 1 shed, 0 served, -1 never resolved
  std::vector<Handle> grant_order;
  std::vector<std::int64_t> grant_ns;
  /// Every sink call in order: 'S' served, 'D' shed, 'G' granted, then id.
  std::vector<std::pair<char, Handle>> calls;
  sim::ServerStats stats;
  std::uint64_t queue_depth = 0;
  std::uint64_t available = 0;
  std::uint64_t waiters = 0;
  std::uint64_t events = 0;
  /// Times a call returned with the head request blocked and a later,
  /// smaller request that would fit: FIFO grant order held it back.
  std::uint64_t held_back = 0;
};

/// One run of `storm` on the token primitives (kTokens) or on the closure
/// oracles.
template <bool kTokens>
class Drive {
  using Fifo = std::conditional_t<kTokens, sim::FifoServer, sim::oracle::ClosureFifoServer>;
  using Pool = std::conditional_t<kTokens, sim::TokenPool, sim::oracle::ClosureTokenPool>;

 public:
  explicit Drive(const Storm& storm)
      : s_(storm), fifo_(make_fifo(engine_, this)), pool_(make_pool(engine_, storm, this)) {
    fifo_.set_shed_target(s_.shed_target);
    out_.job_ns.assign(s_.job_service.size(), -1);
    out_.job_shed.assign(s_.job_service.size(), -1);
    out_.grant_ns.assign(s_.req_n.size(), -1);
  }

  Outcome go() {
    for (std::size_t i = 0; i < s_.job_service.size(); ++i) {
      if (s_.job_is_followup[i]) continue;
      const auto job = static_cast<Handle>(i);
      engine_.schedule_at(s_.job_arrival[i], [this, job] { submit(job); });
    }
    for (std::size_t i = 0; i < s_.req_n.size(); ++i) {
      if (s_.req_is_followup[i]) continue;
      const auto req = static_cast<Handle>(i);
      engine_.schedule_at(s_.req_arrival[i], [this, req] { acquire(req); });
    }
    engine_.run();
    out_.stats = fifo_.stats();
    out_.queue_depth = fifo_.queue_depth();
    out_.available = pool_.available();
    out_.waiters = pool_.waiters();
    out_.events = engine_.events_executed();
    return out_;
  }

 private:
  static Fifo make_fifo(Engine& engine, Drive* self) {
    if constexpr (kTokens) {
      return Fifo{engine, [self](Handle job, bool shed) { self->resolved(job, shed); }};
    } else {
      return Fifo{engine};
    }
  }
  static Pool make_pool(Engine& engine, const Storm& storm, Drive* self) {
    if constexpr (kTokens) {
      return Pool{storm.pool_size, [self](Handle req) { self->granted(req); }};
    } else {
      return Pool{engine, storm.pool_size};
    }
  }

  void submit(Handle job) {
    const SimTime service = s_.job_service[job];
    if constexpr (kTokens) {
      fifo_.submit(service, job);
    } else if (s_.shed_target > SimTime::zero()) {
      fifo_.submit(service, [this, job] { resolved(job, false); },
                   [this, job] { resolved(job, true); });
    } else {
      fifo_.submit(service, [this, job] { resolved(job, false); });
    }
  }

  void acquire(Handle req) {
    pending_.push_back(req);
    if constexpr (kTokens) {
      pool_.acquire(s_.req_n[req], req);
    } else {
      pool_.acquire(s_.req_n[req], [this, req] { granted(req); });
    }
    note_held_back();
  }

  void release(std::uint64_t n) {
    pool_.release(n);
    note_held_back();
  }

  void note_held_back() {
    if (pending_.empty() || s_.req_n[pending_.front()] <= pool_.available()) return;
    for (const Handle req : pending_) {
      if (s_.req_n[req] <= pool_.available()) {
        ++out_.held_back;
        return;
      }
    }
  }

  void resolved(Handle job, bool shed) {
    out_.job_ns[job] = engine_.now().ns();
    out_.job_shed[job] = shed ? 1 : 0;
    out_.calls.emplace_back(shed ? 'D' : 'S', job);
    for (const Handle next : s_.job_followups[job]) submit(next);
  }

  void granted(Handle req) {
    out_.grant_order.push_back(req);
    out_.grant_ns[req] = engine_.now().ns();
    out_.calls.emplace_back('G', req);
    std::erase(pending_, req);
    for (const Handle next : s_.req_followups[req]) acquire(next);
    for (const Release& piece : s_.req_releases[req]) {
      if (piece.inside_grant) {
        release(piece.n);
      } else {
        engine_.schedule_after(piece.delay, [this, n = piece.n] { release(n); });
      }
    }
  }

  const Storm& s_;
  Engine engine_{1};
  Outcome out_;
  std::vector<Handle> pending_;  ///< acquired, not yet granted, in order
  Fifo fifo_;
  Pool pool_;
};

void expect_same_stats(const sim::ServerStats& token, const sim::ServerStats& closure,
                       std::uint64_t seed) {
  EXPECT_EQ(token.jobs_completed, closure.jobs_completed) << "seed " << seed;
  EXPECT_EQ(token.busy_time, closure.busy_time) << "seed " << seed;
  EXPECT_EQ(token.total_wait, closure.total_wait) << "seed " << seed;
  EXPECT_EQ(token.max_queue_depth, closure.max_queue_depth) << "seed " << seed;
  EXPECT_EQ(token.shed_jobs, closure.shed_jobs) << "seed " << seed;
  EXPECT_EQ(token.sojourn_us.total(), closure.sojourn_us.total()) << "seed " << seed;
  EXPECT_EQ(token.sojourn_us.min(), closure.sojourn_us.min()) << "seed " << seed;
  EXPECT_EQ(token.sojourn_us.max(), closure.sojourn_us.max()) << "seed " << seed;
  EXPECT_EQ(token.sojourn_us.mean(), closure.sojourn_us.mean()) << "seed " << seed;
  for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
    EXPECT_EQ(token.sojourn_us.bucket_count(b), closure.sojourn_us.bucket_count(b))
        << "seed " << seed << " sojourn bucket " << b;
  }
}

TEST(QueueDiff, TokenPrimitivesMatchClosurePrimitives) {
  constexpr std::uint64_t kSeeds = 400;
  std::uint64_t shed = 0, served = 0, held_back = 0, inside_releases = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Storm storm = make_storm(seed);
    const Outcome token = Drive<true>{storm}.go();
    const Outcome closure = Drive<false>{storm}.go();

    ASSERT_EQ(token.job_ns, closure.job_ns) << "seed " << seed;
    ASSERT_EQ(token.job_shed, closure.job_shed) << "seed " << seed;
    ASSERT_EQ(token.grant_order, closure.grant_order) << "seed " << seed;
    ASSERT_EQ(token.grant_ns, closure.grant_ns) << "seed " << seed;
    ASSERT_EQ(token.calls, closure.calls) << "seed " << seed;
    expect_same_stats(token.stats, closure.stats, seed);
    EXPECT_EQ(token.queue_depth, closure.queue_depth) << "seed " << seed;
    EXPECT_EQ(token.available, closure.available) << "seed " << seed;
    EXPECT_EQ(token.waiters, closure.waiters) << "seed " << seed;
    EXPECT_EQ(token.events, closure.events) << "seed " << seed;
    EXPECT_EQ(token.held_back, closure.held_back) << "seed " << seed;

    // The storm drains: every job resolves once, every request is granted
    // once and every token comes back.
    for (const int s : token.job_shed) ASSERT_NE(s, -1) << "seed " << seed;
    ASSERT_EQ(token.grant_order.size(), storm.req_n.size()) << "seed " << seed;
    EXPECT_EQ(token.available, storm.pool_size) << "seed " << seed;
    EXPECT_EQ(token.queue_depth, 0u) << "seed " << seed;

    for (const int s : token.job_shed) ++(s == 1 ? shed : served);
    held_back += token.held_back;
    for (const auto& pieces : storm.req_releases) {
      for (const Release& piece : pieces) inside_releases += piece.inside_grant ? 1 : 0;
    }
  }
  // The storms reach the paths under test: sheds and services both occur,
  // releases run inside grants, and small requests wait behind a blocked
  // head.
  std::cout << "jobs shed " << shed << ", served " << served << "; releases inside a grant "
            << inside_releases << "; requests held back " << held_back << "\n";
  EXPECT_GT(shed, 1000u);
  EXPECT_GT(served, 10'000u);
  EXPECT_GT(inside_releases, 1000u);
  EXPECT_GT(held_back, 1000u);
}

}  // namespace
}  // namespace pio
