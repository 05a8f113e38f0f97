// Differential tests for sim::FairShareChannel, which hands each drained
// flow's token to one sink:
//  - against the closure-per-transfer channel it replaced
//    (tests/closure_channel_oracle.hpp), exactly: the same completion ns per
//    flow, release order, virtual clock at every release, bytes moved and
//    engine event count;
//  - against the list-scanning channel before that
//    (tests/list_channel_oracle.hpp), within a slack window;
//  - against exact processor sharing.
//
// The oracles keep their callback APIs; a small adapter drives them through
// the token API, so all channels see the same storms.
//
// Both channels are driven with identical open-loop seeded flow storms. The
// old channel releases a flow once less than 0.5 byte is left, so it can
// finish near-ties early by up to 0.5 B x flows / capacity; the new one
// releases a flow when its virtual finish tag is reached. The old channel
// also finishes some flows a few ns late: it rounds double-precision times
// up to whole ns, so a finish that falls exactly on a nanosecond can round
// to the next one, and the delay carries on through the sharing. Small
// storms are checked against an exact integer schedule, which the new
// channel never beats and trails by at most 2 ns. The remaining tests
// pin the completion re-armed before the sinks run, the exact-tie release
// order, the clock reset on idle, and a busy period long enough to need the
// 128-bit arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "closure_channel_oracle.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "list_channel_oracle.hpp"
#include "sim/engine.hpp"
#include "sim/records.hpp"
#include "sim/resources.hpp"

namespace pio {
namespace {

using namespace pio::literals;
using sim::Engine;
using sim::FairShareChannel;
using sim::Handle;

/// A callback channel behind the token API: transfer `token` gets a
/// callback that hands the token to the sink.
template <typename Closure>
class OnCallbacks {
 public:
  OnCallbacks(Engine& engine, Bandwidth capacity, SimTime latency,
              std::function<void(Handle)> on_drained)
      : link_(engine, capacity, latency), on_drained_(std::move(on_drained)) {}

  void transfer(Bytes size, Handle token) {
    link_.transfer(size, [this, token] { on_drained_(token); });
  }
  [[nodiscard]] std::size_t active_flows() const { return link_.active_flows(); }
  [[nodiscard]] Bytes bytes_moved() const { return link_.bytes_moved(); }
  [[nodiscard]] auto virtual_clock() const
    requires requires(const Closure& c) { c.virtual_clock(); }
  {
    return link_.virtual_clock();
  }

 private:
  Closure link_;
  std::function<void(Handle)> on_drained_;
};

using ClosureChannel = OnCallbacks<sim::oracle::ClosureFairShareChannel>;
using ListChannel = OnCallbacks<sim::oracle::ListFairShareChannel>;

template <typename Channel>
constexpr bool kHasClock = requires(const Channel& c) { c.virtual_clock(); };

struct Storm {
  Bandwidth capacity;
  SimTime latency;
  std::vector<SimTime> arrival;
  std::vector<Bytes> size;
};

/// An open-loop storm of `min_flows`-`max_flows` flows: sizes from 1 B to
/// 4 MiB (half uniform, half log-uniform), mixed with a few recurring exact
/// sizes and same-instant arrival batches so that exact tag ties occur.
Storm make_storm(std::uint64_t seed, std::uint64_t min_flows, std::uint64_t max_flows) {
  constexpr double kCapacityGiB[] = {1.0, 10.0, 80.0};
  constexpr std::int64_t kLatencyNs[] = {0, 1'000, 10'000};
  constexpr std::uint64_t kMaxSize = 4ULL << 20;
  const Bytes recurring[] = {1_MiB, 4_KiB, 64_KiB + 1_B, 4_MiB};

  Rng rng{seed};
  Storm storm;
  storm.capacity = Bandwidth::from_gib_per_sec(kCapacityGiB[seed % 3]);
  storm.latency = SimTime::from_ns(kLatencyNs[(seed / 3) % 3]);
  const auto flows =
      static_cast<std::size_t>(min_flows + rng.next_below(max_flows - min_flows + 1));
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < flows; ++i) {
    Bytes size;
    if (rng.chance(0.3)) {
      size = recurring[rng.next_below(std::size(recurring))];
    } else if (rng.chance(0.5)) {
      size = Bytes{1 + rng.next_below(kMaxSize)};
    } else {
      size = Bytes{std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::exp2(rng.uniform(0.0, 22.0))))};
    }
    storm.size.push_back(size);
    total += size.count();
  }
  // Spread arrivals over 0.25-2x the time the whole storm takes at full
  // capacity: from a standing queue of every flow to a lightly loaded link.
  const double span_ns = static_cast<double>(total) * storm.capacity.ns_per_byte() *
                         rng.uniform(0.25, 2.0);
  for (std::size_t i = 0; i < flows; ++i) {
    const bool batch = i > 0 && rng.chance(0.3);  // same instant as the previous flow
    storm.arrival.push_back(batch ? storm.arrival.back()
                                  : SimTime::from_ns(static_cast<std::int64_t>(
                                        rng.uniform(0.0, span_ns))));
  }
  return storm;
}

/// `storm` with about one flow in ten made zero-size (latency only), drawn
/// from a stream of its own so the other flows keep their sizes.
Storm with_zero_size(Storm storm, std::uint64_t seed) {
  Rng rng{seed, 1};
  for (Bytes& size : storm.size) {
    if (rng.chance(0.1)) size = Bytes::zero();
  }
  return storm;
}

struct StormRun {
  std::vector<SimTime> done;  ///< completion time per flow
  std::size_t completed = 0;
  Bytes moved;
  std::vector<Handle> order;  ///< flows in release order
  /// The channel's virtual clock at each release (channels that have one).
  std::vector<FairShareChannel::VirtualTime> clocks;
  std::uint64_t events = 0;  ///< engine events executed
};

template <typename Channel>
StormRun run_storm(const Storm& storm) {
  Engine engine;
  StormRun run;
  run.done.assign(storm.size.size(), SimTime::max());
  const Channel* self = nullptr;
  // piolint: allow(C2) — engine.run() drains before run and self leave scope.
  Channel link{engine, storm.capacity, storm.latency, [&run, &engine, &self](Handle i) {
                 EXPECT_EQ(run.done[i], SimTime::max()) << "flow " << i << " completed twice";
                 run.done[i] = engine.now();
                 ++run.completed;
                 run.order.push_back(i);
                 if constexpr (kHasClock<Channel>) run.clocks.push_back(self->virtual_clock());
               }};
  self = &link;
  for (std::size_t i = 0; i < storm.size.size(); ++i) {
    // piolint: allow(C2) — engine.run() drains before link leaves scope.
    engine.schedule_at(storm.arrival[i], [&link, &storm, i] {
      link.transfer(storm.size[i], static_cast<Handle>(i));
    });
  }
  engine.run();
  engine.assert_drained();
  EXPECT_EQ(link.active_flows(), 0u);
  run.moved = link.bytes_moved();
  run.events = engine.events_executed();
  return run;
}

/// The token channel and the closure channel it replaced must agree on
/// every observable: per-flow completion ns, release order, the virtual
/// clock at each release, bytes moved and the engine's event count.
void expect_identical(const Storm& storm, const std::string& label) {
  const StormRun fresh = run_storm<FairShareChannel>(storm);
  const StormRun old = run_storm<ClosureChannel>(storm);
  ASSERT_EQ(fresh.completed, storm.size.size()) << label;
  ASSERT_EQ(fresh.done, old.done) << label;
  ASSERT_EQ(fresh.order, old.order) << label;
  ASSERT_EQ(fresh.clocks.size(), old.clocks.size()) << label;
  for (std::size_t k = 0; k < fresh.clocks.size(); ++k) {
    ASSERT_TRUE(fresh.clocks[k] == old.clocks[k]) << label << " release " << k;
  }
  ASSERT_EQ(fresh.moved, old.moved) << label;
  ASSERT_EQ(fresh.events, old.events) << label;
}

__extension__ typedef unsigned __int128 Wide;

/// Exact processor sharing for storms of at most 32 flows, with the same
/// rule as the channels' completion events: a completion fires at the next
/// whole nanosecond and releases every flow with nothing left. Volumes are
/// integers in units of 1 / (1e9 x lcm(1..32)) byte, so every share
/// capacity x dt / n is exact. Capacities must be whole bytes per second.
std::vector<SimTime> exact_schedule(const Storm& storm) {
  constexpr Wide kLcm = 144'403'552'893'600;  // lcm(1..32)
  constexpr Wide kUnitsPerByte = kLcm * 1'000'000'000;
  const auto bps = static_cast<Wide>(storm.capacity.bytes_per_sec());
  std::vector<std::size_t> order(storm.size.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return storm.arrival[a] < storm.arrival[b];
  });
  std::vector<SimTime> done(storm.size.size(), SimTime::max());
  std::vector<std::pair<std::size_t, Wide>> active;  // flow, units left
  std::size_t next = 0;
  std::int64_t now = 0;
  while (next < order.size() || !active.empty()) {
    std::int64_t at = std::numeric_limits<std::int64_t>::max();
    if (next < order.size()) at = (storm.arrival[order[next]] + storm.latency).ns();
    const Wide per_ns = active.empty() ? 0 : bps * kLcm / active.size();  // per flow
    if (!active.empty()) {
      Wide least = active.front().second;
      for (const auto& flow : active) least = std::min(least, flow.second);
      at = std::min(at, now + static_cast<std::int64_t>((least + per_ns - 1) / per_ns));
    }
    const Wide share = per_ns * static_cast<Wide>(at - now);
    for (auto& flow : active) flow.second -= std::min(flow.second, share);
    now = at;
    std::erase_if(active, [&](const auto& flow) {
      if (flow.second != 0) return false;
      done[flow.first] = SimTime::from_ns(now);
      return true;
    });
    while (next < order.size() && (storm.arrival[order[next]] + storm.latency).ns() == now) {
      active.emplace_back(order[next], storm.size[order[next]].count() * kUnitsPerByte);
      ++next;
    }
  }
  return done;
}

TEST(FairShareChannelDiff, SmallStormsMatchExactSharing) {
  // The channel never finishes a flow before exact processor sharing does.
  // Its clock advances by a floor division, so it can trail the exact
  // schedule by part of a nanosecond, which a completion rounds up to one;
  // the largest trail seen over these storms is 2 ns.
  constexpr std::int64_t kMaxTrailNs = 2;
  std::int64_t latest = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const Storm storm = make_storm(seed, 2, 32);
    const StormRun fresh = run_storm<FairShareChannel>(storm);
    const std::vector<SimTime> exact = exact_schedule(storm);
    for (std::size_t i = 0; i < exact.size(); ++i) {
      const std::int64_t delta = (fresh.done[i] - exact[i]).ns();
      ASSERT_GE(delta, 0) << "storm " << seed << " flow " << i << " finished early";
      ASSERT_LE(delta, kMaxTrailNs) << "storm " << seed << " flow " << i << " finished late";
      latest = std::max(latest, delta);
    }
  }
  std::cout << "small storms: latest vs exact = " << latest << " ns\n";
}

TEST(FairShareChannelDiff, SeededStormsStayWithinTheSlackWindow) {
  constexpr std::uint64_t kStorms = 300;
  // How much later than the new channel the old one may finish a flow (see
  // the header); the largest gap over these storms is 5 ns.
  constexpr std::int64_t kOldLateNs = 8;
  std::size_t total_flows = 0;
  double worst_fraction = 0.0;  // largest t_new - t_old over its bound
  for (std::uint64_t seed = 1; seed <= kStorms; ++seed) {
    const Storm storm = make_storm(seed, 64, 2048);
    const StormRun fresh = run_storm<FairShareChannel>(storm);
    const StormRun old = run_storm<ListChannel>(storm);
    const std::size_t flows = storm.size.size();
    total_flows += flows;
    ASSERT_EQ(fresh.completed, flows) << "storm " << seed;
    ASSERT_EQ(old.completed, flows) << "storm " << seed;
    ASSERT_EQ(fresh.moved, old.moved) << "storm " << seed;
    const Bytes expected = std::accumulate(storm.size.begin(), storm.size.end(), Bytes::zero());
    ASSERT_EQ(fresh.moved, expected) << "storm " << seed;

    // Late: 0.5 B per concurrent flow at capacity / flows, plus 1 ns
    // rounding. Early: the old channel's own late rounding.
    const double slack_ns = 0.5 * static_cast<double>(flows) * storm.capacity.ns_per_byte();
    for (std::size_t i = 0; i < flows; ++i) {
      const std::int64_t delta = (fresh.done[i] - old.done[i]).ns();
      ASSERT_GE(delta, -kOldLateNs) << "storm " << seed << " flow " << i << " finished early";
      ASSERT_LE(static_cast<double>(delta), slack_ns + 1.0)
          << "storm " << seed << " flow " << i << " (" << storm.size[i].count() << " B, "
          << flows << " flows, " << storm.capacity.gib_per_sec() << " GiB/s) finished late";
      worst_fraction = std::max(worst_fraction, static_cast<double>(delta) / (slack_ns + 1.0));
    }
  }
  EXPECT_GE(total_flows, 300u * 64u);
  std::cout << "storms=" << kStorms << " flows=" << total_flows
            << " worst delta / bound=" << worst_fraction << "\n";
}

TEST(FairShareChannelDiff, TokenChannelMatchesClosureChannel) {
  // The seeded storms of the tests above, each also with zero-size flows
  // mixed in: same-instant batches and recurring sizes give exact tag ties.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Storm storm = make_storm(seed, 64, 2048);
    expect_identical(storm, "storm " + std::to_string(seed));
    expect_identical(with_zero_size(storm, seed), "zero-size storm " + std::to_string(seed));
  }
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const Storm storm = make_storm(seed, 2, 32);
    expect_identical(storm, "small storm " + std::to_string(seed));
    expect_identical(with_zero_size(storm, seed),
                     "small zero-size storm " + std::to_string(seed));
  }
}

/// Flow 0 (1000 B) drains at 2000 ns and its sink schedules an event 2000 ns
/// later; flow 1 (3000 B) drains at 4000 ns, the same instant. The channel
/// re-arms its completion before it runs the sinks, so flow 1 fires first.
template <typename Channel>
std::vector<std::pair<int, std::int64_t>> sink_tie_order() {
  Engine engine;
  std::vector<std::pair<int, std::int64_t>> fired;  // 0/1: flow drained, 2: sink's event
  // One byte per ns: every time below is exact.
  // piolint: allow(C2) — engine.run() drains before the captures leave scope.
  Channel link{engine, Bandwidth{1e9}, 0_us, [&](Handle h) {
                 fired.emplace_back(static_cast<int>(h), engine.now().ns());
                 if (h == 0) {
                   const auto sink_event = [&] { fired.emplace_back(2, engine.now().ns()); };
                   // piolint: allow(C2) — as above.
                   engine.schedule_after(SimTime::from_ns(2000), sink_event);
                 }
               }};
  link.transfer(Bytes{1000}, 0);
  link.transfer(Bytes{3000}, 1);
  engine.run();
  return fired;
}

TEST(FairShareChannelDiff, CompletionIsArmedBeforeTheSinksRun) {
  const std::vector<std::pair<int, std::int64_t>> expected{{0, 2000}, {1, 4000}, {2, 4000}};
  EXPECT_EQ(sink_tie_order<FairShareChannel>(), expected);
  EXPECT_EQ(sink_tie_order<ClosureChannel>(), expected);
}

TEST(FairShareChannelDiff, ExactTieBatchReleasesInAdmissionOrder) {
  Engine engine;
  std::vector<Handle> order;
  std::vector<SimTime> when;
  SimTime background_done = SimTime::zero();
  constexpr Handle kBackground = 64;
  // piolint: allow(C2) — engine.run() drains before the captures leave scope.
  FairShareChannel link{engine, Bandwidth::from_gib_per_sec(1.0), 0_us, [&](Handle h) {
                          if (h == kBackground) {
                            background_done = engine.now();
                            return;
                          }
                          order.push_back(h);
                          when.push_back(engine.now());
                        }};
  link.transfer(8_MiB, kBackground);
  // piolint: allow(C2) — as above.
  engine.schedule_at(SimTime::from_us(3.0), [&] {
    for (Handle i = 0; i < 64; ++i) link.transfer(64_KiB, i);
  });
  engine.run();
  std::vector<Handle> admission(64);
  std::iota(admission.begin(), admission.end(), Handle{0});
  EXPECT_EQ(order, admission);
  ASSERT_EQ(when.size(), 64u);
  EXPECT_TRUE(std::all_of(when.begin(), when.end(), [&](SimTime t) { return t == when[0]; }))
      << "an exact-tie batch must be released in one instant";
  EXPECT_GT(background_done, when[0]);
}

TEST(FairShareChannelDiff, ClockResetsWhenIdle) {
  Engine engine;
  FairShareChannel::VirtualTime busy_clock = 0;
  SimTime start = SimTime::zero();
  std::vector<SimTime> first;
  std::vector<SimTime> second;
  std::vector<SimTime>* period = &first;
  const FairShareChannel* self = nullptr;
  // piolint: allow(C2) — engine.run() drains before the captures leave scope.
  FairShareChannel link{engine, Bandwidth::from_gib_per_sec(1.0), 0_us, [&](Handle h) {
                          if (h == 1 && period == &first) busy_clock = self->virtual_clock();
                          period->push_back(engine.now() - start);
                        }};
  self = &link;
  link.transfer(2_MiB, 0);
  link.transfer(1_KiB, 1);
  engine.run();
  EXPECT_GT(busy_clock, 0u);
  EXPECT_EQ(link.virtual_clock(), 0u);
  EXPECT_EQ(link.active_flows(), 0u);

  // A second busy period after an idle gap runs exactly like the first.
  period = &second;
  start = engine.now() + SimTime::from_ms(5.0);
  // piolint: allow(C2) — engine.run() drains before the captures leave scope.
  engine.schedule_at(start, [&] {
    link.transfer(2_MiB, 0);
    link.transfer(1_KiB, 1);
  });
  engine.run();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second, first);
  EXPECT_EQ(link.virtual_clock(), 0u);
}

TEST(FairShareChannelDiff, LongBusyPeriodUsesWideArithmetic) {
  // A 10 s busy period: the clock passes 2^64 units (~4.3 s), and the second
  // admission comes after a gap of more than 2^32 ns.
  const Storm storm{Bandwidth::from_mib_per_sec(100.0), SimTime::zero(),
                    {SimTime::zero(), SimTime::from_sec(5.0)},
                    {1_GiB, 256_MiB}};
  const StormRun fresh = run_storm<FairShareChannel>(storm);
  const StormRun old = run_storm<ListChannel>(storm);
  // A runs alone for 5 s (500 MiB), then both share 50 MiB/s: B needs
  // 5.12 s more; A's last 268 MiB then take 2.68 s at full rate.
  EXPECT_NEAR(static_cast<double>(fresh.done[1].ns()), 10.12e9, 2.0);
  EXPECT_NEAR(static_cast<double>(fresh.done[0].ns()), 12.80e9, 2.0);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE((fresh.done[i] - old.done[i]).ns(), -1) << "flow " << i;
    EXPECT_LE((fresh.done[i] - old.done[i]).ns(), 2) << "flow " << i;
  }
  EXPECT_EQ(fresh.moved, old.moved);
  expect_identical(storm, "10 s busy period");
}

}  // namespace
}  // namespace pio
