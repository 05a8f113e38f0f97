// Differential test: net::Fabric, which carries each message as one pooled
// record through its inject, core and eject stages, against the
// three-nested-closure fabric it replaced (tests/fabric_oracle.hpp).
//
// Both fabrics are driven, each on its own engine, with identical seeded
// message storms over 2 to 64 endpoints: log-uniform sizes up to 4 MiB, a
// share of zero-size (latency-only) messages, same-instant send batches so
// that exact ties occur, replies sent from inside delivery callbacks, and on
// half the seeds a brownout fault::Timeline that inflates the wire size of
// the messages sent inside it. The pooled fabric must deliver every message
// at the same nanosecond and in the same order, end with the same
// FabricStats after the same number of engine events, and leave no message
// record live. The oracle runs on the closure-per-transfer channels
// (tests/closure_channel_oracle.hpp), so this also checks the token
// channels' drain sinks end to end.
//
// piolint: allow-file(C2) — each storm schedules against a stack-local
// engine and drains it (run()) in the same scope, so by-reference captures
// cannot outlive their frame.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fabric_oracle.hpp"
#include "fault/fault.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace pio::net {
namespace {

struct Message {
  SimTime at;
  EndpointId src = 0;
  EndpointId dst = 0;
  Bytes size;
  int replies = 0;  ///< replies chained from the delivery callback
};

struct Storm {
  FabricConfig config;
  std::uint32_t endpoints = 2;
  std::vector<Message> messages;
  fault::FaultPlan weather;
};

Storm make_storm(std::uint64_t seed) {
  constexpr std::uint32_t kEndpoints[] = {2, 5, 16, 64};
  constexpr double kCoreLinks[] = {0.5, 2.0, 8.0};
  Rng rng{seed};
  Storm storm;
  storm.endpoints = kEndpoints[seed % 4];
  storm.config.endpoint_bandwidth = Bandwidth::from_gib_per_sec(1.0 + 9.0 * rng.uniform());
  storm.config.endpoint_latency = SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(2000)));
  storm.config.core_links = kCoreLinks[(seed / 4) % 3];
  storm.config.core_latency = SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(2000)));
  const std::uint64_t count = 400 + rng.next_below(1100);
  std::int64_t t = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    // One send in four starts a new instant; the rest join the current one.
    if (rng.next_below(4) == 0) t += static_cast<std::int64_t>(rng.next_below(200'000));
    Message m;
    m.at = SimTime::from_ns(t);
    m.src = static_cast<EndpointId>(rng.next_below(storm.endpoints));
    m.dst = static_cast<EndpointId>(rng.next_below(storm.endpoints));
    const std::uint64_t kind = rng.next_below(10);
    if (kind == 0) {
      m.size = Bytes::zero();
    } else if (kind < 5) {
      m.size = Bytes{1 + rng.next_below(4ULL << 20)};
    } else {
      m.size = Bytes{static_cast<std::uint64_t>(std::exp2(22.0 * rng.uniform()))};
    }
    m.replies = static_cast<int>(rng.next_below(3));
    storm.messages.push_back(m);
  }
  if (seed % 2 == 0) {
    const SimTime horizon = SimTime::from_ns(t);
    storm.weather.fabric_brownout(fault::ComponentKind::kComputeFabric, horizon / 4,
                                  horizon / 2, 1.5 + 2.0 * rng.uniform());
    storm.weather.fabric_brownout(fault::ComponentKind::kComputeFabric, horizon * 3 / 5,
                                  horizon * 4 / 5 + SimTime::from_ns(1), 4.0);
  }
  return storm;
}

struct Delivery {
  std::uint64_t id = 0;
  std::int64_t at_ns = 0;
  bool operator==(const Delivery&) const = default;
};

struct Outcome {
  std::vector<Delivery> deliveries;
  FabricStats stats;
  std::size_t left_in_flight = 0;
  std::uint64_t events = 0;  ///< engine events executed
};

template <typename F>
std::size_t in_flight(const F& fabric) {
  if constexpr (requires { fabric.messages_in_flight(); }) {
    return fabric.messages_in_flight();
  } else {
    return 0;
  }
}

template <typename F>
Outcome drive(const Storm& storm) {
  sim::Engine engine{1};
  F fabric{engine, storm.config, storm.endpoints};
  const fault::Timeline timeline{storm.weather.events};
  if (!storm.weather.empty()) {
    fabric.set_fault_timeline(&timeline, {fault::ComponentKind::kComputeFabric, 0});
  }
  Outcome out;
  std::uint64_t next_id = storm.messages.size();
  std::function<void(std::uint64_t, EndpointId, EndpointId, Bytes, int)> send =
      [&](std::uint64_t id, EndpointId src, EndpointId dst, Bytes size, int replies) {
        fabric.send(src, dst, size, [&, id, src, dst, replies] {
          out.deliveries.push_back(Delivery{id, engine.now().ns()});
          if (replies > 0) {
            send(next_id++, dst, src, Bytes{(id % 4) * 4096}, replies - 1);
          }
        });
      };
  for (std::uint64_t i = 0; i < storm.messages.size(); ++i) {
    const Message& m = storm.messages[i];
    engine.schedule_at(m.at, [&send, &m, i] { send(i, m.src, m.dst, m.size, m.replies); });
  }
  engine.run();
  engine.assert_drained();
  out.stats = fabric.stats();
  out.left_in_flight = in_flight(fabric);
  out.events = engine.events_executed();
  return out;
}

TEST(FabricDiff, SeededStormsMatchTheNestedClosureFabric) {
  std::uint64_t degraded = 0;
  std::uint64_t zero_size = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Storm storm = make_storm(seed);
    const Outcome want = drive<oracle::NestedFabric>(storm);
    const Outcome got = drive<Fabric>(storm);
    ASSERT_EQ(got.deliveries.size(), want.deliveries.size());
    for (std::size_t k = 0; k < want.deliveries.size(); ++k) {
      ASSERT_EQ(got.deliveries[k], want.deliveries[k])
          << "delivery " << k << ": message " << got.deliveries[k].id << " at "
          << got.deliveries[k].at_ns << " ns, oracle message " << want.deliveries[k].id
          << " at " << want.deliveries[k].at_ns << " ns";
    }
    EXPECT_EQ(got.stats.messages, want.stats.messages);
    EXPECT_EQ(got.stats.bytes, want.stats.bytes);
    EXPECT_EQ(got.stats.degraded_messages, want.stats.degraded_messages);
    EXPECT_EQ(got.left_in_flight, 0u);
    EXPECT_EQ(got.events, want.events);
    degraded += got.stats.degraded_messages;
    for (const Message& m : storm.messages) {
      if (m.size == Bytes::zero()) ++zero_size;
    }
  }
  // The storms reached the paths they are meant to cover.
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(zero_size, 0u);
}

}  // namespace
}  // namespace pio::net
