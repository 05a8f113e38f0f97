// Unit tests for the discrete-event engine and queueing primitives.
//
// piolint: allow-file(C2) — test bodies schedule against a stack-local
// engine and drain it (run()) in the same scope, so by-reference captures
// cannot outlive their frame; library code gets no such exemption.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"

namespace pio::sim {
namespace {

using namespace pio::literals;

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30_us, [&] { order.push_back(3); });
  e.schedule_at(10_us, [&] { order.push_back(1); });
  e.schedule_at(20_us, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30_us);
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(EngineTest, TiesFireInInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5_us, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, SchedulingIntoThePastThrows) {
  Engine e;
  e.schedule_at(10_us, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5_us, [] {}), std::logic_error);
  EXPECT_THROW(e.schedule_after(SimTime::from_ns(-1), [] {}), std::logic_error);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(10_us, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel is a no-op
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(EngineTest, MassCancellationCompactsAndReleasesCaptures) {
  // Cancellation is lazy, but not unboundedly so: once dead entries
  // outnumber live ones the heap compacts, destroying the cancelled
  // callables. A schedule-far-future-then-cancel pattern must therefore
  // release its captures promptly (only a sub-threshold residue < 64 may
  // linger until it surfaces or the next compaction).
  Engine e;
  auto token = std::make_shared<int>(7);
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(e.schedule_after(SimTime::from_ms(100.0 + i), [token] { (void)*token; }));
  }
  EXPECT_EQ(token.use_count(), 1001);
  for (const EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_LT(token.use_count(), 65) << "compaction should have destroyed cancelled callables";
  e.run();  // drains the residue
  e.assert_drained();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EngineTest, CancellationInterleavedWithExecutionKeepsOrder) {
  // Compaction re-heapifies; the (time, seq) total order must make the pop
  // sequence identical to the purely lazy path. The padded capture is larger
  // than a Task's inline buffer, so every callable lives behind a heap
  // pointer: sanitizer builds check that fired and cancelled callables alike
  // are freed exactly once.
  Engine e;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 300; ++i) {
    const std::array<std::uint64_t, 8> pad{static_cast<std::uint64_t>(i)};
    auto handler = [&order, i, pad] { order.push_back(i + static_cast<int>(pad[1])); };
    static_assert(sizeof(handler) > detail::Task::kInlineBytes);
    const EventId id = e.schedule_at(SimTime::from_us(10.0 + i), handler);
    if (i % 3 != 0) cancelled.push_back(id);
  }
  for (const EventId id : cancelled) EXPECT_TRUE(e.cancel(id));
  e.run();
  e.assert_drained();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], static_cast<int>(k) * 3);
  }
}

TEST(EngineTest, RandomStormFiresInTimeThenScheduleOrder) {
  // A dense random storm (~50 ns mean gap over 4000 events, so many exact
  // ties), over half of it cancelled — dead keys then outnumber live ones,
  // which forces compaction — plus self-rescheduling cascades that push past
  // the initial time range. Every event logs (now, scheduling order).
  Engine e;
  std::vector<std::pair<std::int64_t, std::uint64_t>> log;
  std::set<std::uint64_t> expected;  // scheduling orders that must fire
  std::uint64_t scheduled = 0;
  std::function<EventId(SimTime, int)> schedule = [&](SimTime t, int hops) {
    const std::uint64_t order = scheduled++;
    expected.insert(order);
    return e.schedule_at(t, [&, order, hops] {
      log.emplace_back(e.now().ns(), order);
      if (hops > 0) {
        schedule(e.now() + SimTime::from_ns(static_cast<std::int64_t>(order % 977 + 1)), hops - 1);
      }
    });
  };
  std::mt19937_64 rng{12345};
  std::vector<EventId> ids;
  for (int i = 0; i < 4000; ++i) {
    ids.push_back(schedule(SimTime::from_ns(static_cast<std::int64_t>(rng() % 200'000u)), 0));
  }
  // Duplicates hit the already-cancelled path; only a first cancel counts.
  std::mt19937_64 crng{777};
  std::size_t cancelled = 0;
  for (int k = 0; k < 3000; ++k) {
    const std::size_t victim = crng() % ids.size();
    if (e.cancel(ids[victim])) {
      expected.erase(victim);  // the first 4000 scheduling orders are the indices
      ++cancelled;
    }
  }
  ASSERT_GT(cancelled * 2, ids.size()) << "too few cancels to force compaction";
  for (int c = 0; c < 32; ++c) schedule(SimTime::from_ns(c * 6151), 40);
  e.run();
  e.assert_drained();

  ASSERT_EQ(log.size(), expected.size()) << "fired = scheduled - cancelled";
  std::set<std::uint64_t> fired;
  for (const auto& entry : log) fired.insert(entry.second);
  EXPECT_EQ(fired, expected);
  for (std::size_t k = 1; k < log.size(); ++k) {
    ASSERT_LE(log[k - 1].first, log[k].first) << "time went backwards at fire " << k;
    if (log[k - 1].first == log[k].first) {
      ASSERT_LT(log[k - 1].second, log[k].second) << "equal-time events out of schedule order";
    }
  }
}

TEST(EngineTest, RunUntilStopsAtHorizon) {
  Engine e;
  int count = 0;
  e.schedule_at(10_us, [&] { ++count; });
  e.schedule_at(20_us, [&] { ++count; });
  e.schedule_at(30_us, [&] { ++count; });
  e.run(20_us);
  EXPECT_EQ(count, 2);
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(EngineTest, HandlersCanScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.schedule_after(1_us, recurse);
  };
  e.schedule_after(1_us, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 100_us);
}

TEST(EngineTest, RngStreamsAreStable) {
  Engine e{1234};
  Rng a = e.rng_stream(5);
  Rng b = e.rng_stream(5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(FifoServerTest, SerializesJobs) {
  Engine e;
  std::vector<std::pair<Handle, std::int64_t>> completions;
  FifoServer server{e, [&](Handle h, bool shed) {
                      EXPECT_FALSE(shed);
                      completions.emplace_back(h, e.now().ns());
                    }};
  for (Handle i = 0; i < 3; ++i) server.submit(10_us, i);
  e.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], std::make_pair(Handle{0}, std::int64_t{10'000}));
  EXPECT_EQ(completions[1], std::make_pair(Handle{1}, std::int64_t{20'000}));
  EXPECT_EQ(completions[2], std::make_pair(Handle{2}, std::int64_t{30'000}));
  EXPECT_EQ(server.stats().jobs_completed, 3u);
  EXPECT_EQ(server.stats().busy_time, 30_us);
  // Job 2 waited 10us, job 3 waited 20us.
  EXPECT_EQ(server.stats().total_wait, 30_us);
  EXPECT_EQ(server.stats().max_queue_depth, 3u);
}

TEST(FifoServerTest, NegativeServiceTimeThrows) {
  Engine e;
  FifoServer server{e, [](Handle, bool) {}};
  EXPECT_THROW(server.submit(SimTime::from_ns(-5), 0), std::invalid_argument);
}

TEST(FifoServerTest, EmptySinkIsRejected) {
  Engine e;
  EXPECT_THROW((FifoServer{e, {}}), std::invalid_argument);
}

TEST(FairShareChannelTest, SingleFlowTakesSizeOverCapacity) {
  Engine e;
  SimTime done = SimTime::zero();
  FairShareChannel link{e, Bandwidth::from_mib_per_sec(100.0), 0_us, [&](Handle) { done = e.now(); }};
  link.transfer(100_MiB, 0);
  e.run();
  // piolint: allow(T1) — NEAR tolerance literal, not a unit conversion.
  EXPECT_NEAR(done.sec(), 1.0, 1e-6);
  EXPECT_EQ(link.bytes_moved(), 100_MiB);
}

TEST(FairShareChannelTest, TwoEqualFlowsShareBandwidth) {
  Engine e;
  std::vector<double> done;
  FairShareChannel link{e, Bandwidth::from_mib_per_sec(100.0), 0_us,
                        [&](Handle) { done.push_back(e.now().sec()); }};
  link.transfer(50_MiB, 0);
  link.transfer(50_MiB, 1);
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // Each gets 50 MiB/s while both are active; both finish at ~1 s.
  EXPECT_NEAR(done[0], 1.0, 1e-3);
  EXPECT_NEAR(done[1], 1.0, 1e-3);
}

TEST(FairShareChannelTest, LateFlowSlowsEarlyFlow) {
  Engine e;
  double done[2] = {0.0, 0.0};
  FairShareChannel link{e, Bandwidth::from_mib_per_sec(100.0), 0_us,
                        [&](Handle h) { done[h] = e.now().sec(); }};
  link.transfer(100_MiB, 0);
  e.schedule_at(SimTime::from_sec(0.5), [&] { link.transfer(50_MiB, 1); });
  e.run();
  // First flow: 50 MiB alone (0.5s), then shares: remaining 50 MiB at
  // 50 MiB/s = 1s more -> 1.5s total. Second: 50 MiB at 50 MiB/s -> also 1.5s.
  EXPECT_NEAR(done[0], 1.5, 1e-3);
  EXPECT_NEAR(done[1], 1.5, 1e-3);
}

TEST(FairShareChannelTest, LatencyAppliesOnce) {
  Engine e;
  SimTime done = SimTime::zero();
  FairShareChannel link{e, Bandwidth::from_gib_per_sec(1.0), 100_us, [&](Handle) { done = e.now(); }};
  link.transfer(Bytes::zero(), 0);
  e.run();
  EXPECT_EQ(done, 100_us);
}

// A zero-size transfer models latency only: its token reaches the sink
// after exactly the latency, in one engine event, moving no bytes and never
// entering the flow heap.
TEST(FairShareChannelTest, ZeroSizeTransferDeliversAfterLatencyInOneEvent) {
  Engine e;
  std::vector<std::pair<Handle, SimTime>> drained;
  FairShareChannel link{e, Bandwidth::from_mib_per_sec(100.0), 10_us,
                        [&](Handle h) { drained.emplace_back(h, e.now()); }};
  link.transfer(Bytes::zero(), 7);
  EXPECT_EQ(e.events_pending(), 1u);
  EXPECT_EQ(link.active_flows(), 0u);
  e.run();
  EXPECT_EQ(e.events_executed(), 1u);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].first, 7u);
  EXPECT_EQ(drained[0].second, 10_us);
  EXPECT_EQ(link.bytes_moved(), Bytes::zero());
  EXPECT_EQ(link.virtual_clock(), 0u);
}

TEST(FairShareChannelTest, EmptySinkIsRejected) {
  Engine e;
  EXPECT_THROW((FairShareChannel{e, Bandwidth::from_gib_per_sec(1.0), 0_us, {}}),
               std::invalid_argument);
}

/// A test actor with any number of pending events, each logged by name
/// when it fires. Keyed, like a channel, on its earliest event.
class ListActor final : public Actor {
 public:
  ListActor(Engine& engine, std::vector<std::string>& log, std::string name)
      : engine_(engine), log_(log), name_(std::move(name)) {}
  ~ListActor() { engine_.disarm(*this); }

  /// Add an event at `t`; its seq is drawn now, as schedule_at would.
  void add(SimTime t) {
    events_.push_back({t, engine_.take_seq()});
    std::sort(events_.begin(), events_.end());
    rekey();
  }
  /// Move the single pending event to `t`, re-keyed in place with a new seq.
  void move_to(SimTime t) {
    events_.assign(1, {t, engine_.take_seq()});
    rekey();
  }

 private:
  void fire() override {
    log_.push_back(name_ + "@" + std::to_string(engine_.now().ns()));
    events_.erase(events_.begin());
    rekey();
  }
  [[nodiscard]] std::uint64_t pending_events() const override { return events_.size(); }
  void rekey() {
    if (events_.empty()) {
      engine_.disarm(*this);
    } else {
      engine_.arm(*this, events_.front().first, events_.front().second);
    }
  }

  Engine& engine_;
  std::vector<std::string>& log_;
  std::string name_;
  std::vector<std::pair<SimTime, std::uint64_t>> events_;  ///< sorted (time, seq)
};

TEST(EngineActorTest, ActorAndTaskKeysInterleaveBySeqAtEqualTimes) {
  Engine e;
  std::vector<std::string> log;
  ListActor x{e, log, "x"};
  ListActor y{e, log, "y"};
  const auto task = [&](std::string name) {
    return [&log, &e, name] { log.push_back(name + "@" + std::to_string(e.now().ns())); };
  };
  e.schedule_at(5_us, task("t1"));
  x.add(5_us);
  e.schedule_at(5_us, task("t2"));
  y.add(5_us);
  x.add(5_us);
  e.schedule_at(5_us, task("t3"));
  y.add(1_us);
  EXPECT_EQ(e.events_pending(), 7u);
  EXPECT_EQ(e.run(), 7u);
  const std::vector<std::string> expected{"y@1000",  "t1@5000", "x@5000", "t2@5000",
                                          "y@5000",  "x@5000", "t3@5000"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(e.events_executed(), 7u);
  EXPECT_EQ(e.events_pending(), 0u);
  e.assert_drained();
}

TEST(EngineActorTest, ReKeyingLaterAndEarlierBothWork) {
  Engine e;
  std::vector<std::string> log;
  std::vector<std::unique_ptr<ListActor>> actors;
  for (int i = 0; i < 12; ++i) {
    std::string name = "a";
    name += std::to_string(i);
    actors.push_back(std::make_unique<ListActor>(e, log, name));
    actors.back()->add(SimTime::from_us(10.0 * (i + 1)));
  }
  actors[0]->move_to(1000_us);  // the top, re-keyed behind everything
  actors[11]->move_to(5_us);    // the last, re-keyed ahead of everything
  actors[6]->move_to(35_us);    // a middle one, earlier
  actors[3]->move_to(75_us);    // and one later
  e.run();
  const std::vector<std::string> expected{
      "a11@5000",  "a1@20000",  "a2@30000",  "a6@35000",  "a4@50000",  "a5@60000",
      "a3@75000",  "a7@80000",  "a8@90000",  "a9@100000", "a10@110000", "a0@1000000"};
  EXPECT_EQ(log, expected);
  e.assert_drained();
}

TEST(EngineActorTest, ArmingIntoThePastThrows) {
  Engine e;
  std::vector<std::string> log;
  ListActor x{e, log, "x"};
  e.schedule_at(10_us, [] {});
  e.run();
  EXPECT_THROW(x.add(5_us), std::logic_error);
}

TEST(FairShareChannelTest, RunUntilLeavesArmedChannelsPendingAndCounted) {
  Engine e;
  std::vector<Handle> drained;
  // 1 MiB at 1 GiB/s drains in 976,563 ns, after 10 us of latency.
  FairShareChannel link{e, Bandwidth::from_gib_per_sec(1.0), 10_us,
                        [&](Handle h) { drained.push_back(h); }};
  FairShareChannel idle{e, Bandwidth::from_gib_per_sec(1.0), 10_us, [](Handle) {}};
  link.transfer(1_MiB, 1);
  link.transfer(Bytes::zero(), 2);
  EXPECT_EQ(e.run(5_us), 0u);
  EXPECT_EQ(e.events_pending(), 2u);  // both in the lane
  EXPECT_EQ(e.run(10_us), 2u);        // admitted, and the zero-size one drained
  EXPECT_EQ(drained, std::vector<Handle>{2});
  EXPECT_EQ(link.active_flows(), 1u);
  EXPECT_EQ(e.events_pending(), 1u);  // the completion
  EXPECT_EQ(e.run(100_us), 0u);
  EXPECT_EQ(e.events_pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(drained, (std::vector<Handle>{2, 1}));
  EXPECT_EQ(e.now(), SimTime::from_ns(986'563));
  EXPECT_EQ(e.events_pending(), 0u);
  e.assert_drained();
}

TEST(FairShareChannelTest, AssertDrainedThrowsWhileALaneHoldsAnArrival) {
  if (!check::kEnabled) GTEST_SKIP() << "checks compiled out";
  Engine e;
  FairShareChannel link{e, Bandwidth::from_gib_per_sec(1.0), 10_us, [](Handle) {}};
  link.transfer(Bytes::zero(), 0);
  EXPECT_THROW(e.assert_drained(), std::logic_error);
  e.run();
  e.assert_drained();
}

TEST(FairShareChannelTest, DestroyingAnArmedChannelDisarmsIt) {
  Engine e;
  int drained = 0;
  {
    FairShareChannel in_lane{e, Bandwidth::from_gib_per_sec(1.0), 10_us,
                             [&](Handle) { ++drained; }};
    in_lane.transfer(1_MiB, 0);
    EXPECT_EQ(e.events_pending(), 1u);
  }
  EXPECT_EQ(e.events_pending(), 0u);
  {
    FairShareChannel in_flight{e, Bandwidth::from_gib_per_sec(1.0), 0_us,
                               [&](Handle) { ++drained; }};
    in_flight.transfer(1_MiB, 0);
    EXPECT_EQ(e.run(SimTime::zero()), 1u);
    EXPECT_EQ(in_flight.active_flows(), 1u);
  }
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_EQ(e.run(), 0u);
  EXPECT_EQ(drained, 0);
  e.assert_drained();
}

TEST(TokenPoolTest, GrantsFifo) {
  std::vector<Handle> grants;
  TokenPool pool{2, [&](Handle h) { grants.push_back(h); }};
  pool.acquire(2, 1);
  pool.acquire(1, 2);
  pool.acquire(1, 3);
  EXPECT_EQ(grants, (std::vector<Handle>{1}));
  pool.release(2);
  EXPECT_EQ(grants, (std::vector<Handle>{1, 2, 3}));
  EXPECT_EQ(pool.available(), 0u);
}

TEST(TokenPoolTest, LargeHeadRequestBlocksSmallerOnes) {
  std::vector<Handle> grants;
  TokenPool pool{4, [&](Handle h) { grants.push_back(h); }};
  pool.acquire(3, 1);
  pool.acquire(4, 2);  // must wait for all 4
  pool.acquire(1, 3);  // FIFO: behind the 4
  EXPECT_EQ(grants, (std::vector<Handle>{1}));
  pool.release(3);
  EXPECT_EQ(grants, (std::vector<Handle>{1, 2}));
  pool.release(4);
  EXPECT_EQ(grants, (std::vector<Handle>{1, 2, 3}));
}

TEST(TokenPoolTest, OverReleaseThrows) {
  TokenPool pool{2, [](Handle) {}};
  EXPECT_THROW(pool.release(1), std::logic_error);
}

TEST(TokenPoolTest, EmptySinkIsRejected) {
  EXPECT_THROW((TokenPool{2, {}}), std::invalid_argument);
}

TEST(TokenPoolTest, RefusedOverReleaseLeavesPoolUnchanged) {
  int granted = 0;  // grants of token 2
  TokenPool pool{2, [&](Handle h) { granted += h == 2 ? 1 : 0; }};
  pool.acquire(1, 1);
  EXPECT_EQ(pool.available(), 1u);
  EXPECT_THROW(pool.release(2), std::logic_error);
  EXPECT_EQ(pool.available(), 1u);
  // The refused release granted nothing: a request for the whole pool
  // still waits for the outstanding token.
  pool.acquire(2, 2);
  EXPECT_EQ(granted, 0);
  EXPECT_EQ(pool.waiters(), 1u);
  pool.release(1);
  EXPECT_EQ(granted, 1);
  EXPECT_EQ(pool.available(), 0u);
}

// A check's detail is built only when the invariant fails, and the
// failure text is unchanged by building it lazily.
TEST(SimCheckTest, DetailIsBuiltOnlyOnFailure) {
  if (!check::kEnabled) GTEST_SKIP() << "checks compiled out";
  int built = 0;
  const auto detail = [&built] {
    ++built;
    return std::string("context");
  };
  check::that(true, "sim.test-holds", detail);
  EXPECT_EQ(built, 0);
  try {
    check::that(false, "sim.test-fails", detail);
    FAIL() << "a failed check did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "sim invariant violated [sim.test-fails]: context");
  }
  EXPECT_EQ(built, 1);
  EXPECT_THROW(check::that(false, "sim.test-no-detail"), std::logic_error);
}

TEST(SimCheckTest, FailingRecordsReleasedReportsTheLiveCount) {
  if (!check::kEnabled) GTEST_SKIP() << "checks compiled out";
  check::records_released(0, "ost");
  try {
    check::records_released(3, "ost");
    FAIL() << "a leak did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "sim invariant violated [sim.records-leak]: ost: 3 records still live");
  }
  try {
    check::admission_accounting_exact(5, 4, "mds");
    FAIL() << "an accounting gap did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "sim invariant violated [overload.admission-accounting]: mds: submitted=5 "
                 "accounted=4");
  }
}

TEST(EngineDeterminismTest, IdenticalRunsProduceIdenticalHistories) {
  auto run_once = [] {
    Engine e{77};
    std::vector<std::int64_t> history;
    FifoServer server{e, [&](Handle, bool) { history.push_back(e.now().ns()); }};
    Rng rng = e.rng_stream(1);
    for (int i = 0; i < 50; ++i) {
      const auto service = SimTime::from_us(rng.uniform(1.0, 100.0));
      e.schedule_at(SimTime::from_us(rng.uniform(0.0, 500.0)), [&, service] {
        server.submit(service, 0);
      });
    }
    e.run();
    return history;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace pio::sim
