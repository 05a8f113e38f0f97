// pio::pfs cluster-membership tests: HRW vs round-robin placement algebra,
// heartbeat failure detection (latency bounds, grace-period sweeps), the
// stale-map client protocol (kStaleMap bounce -> refresh -> retry), epoch
// migration volume, and invariant F4 — acknowledged data stays readable
// across any join -> drain -> crash -> decommission sequence at R >= 2.
//
// piolint: allow-file(C2) — test bodies schedule against a stack-local
// engine/model and drain it in the same scope, so by-reference captures
// cannot outlive their frame; library code gets no such exemption.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "pfs/cluster_map.hpp"
#include "pfs/pfs.hpp"
#include "pfs/resilience.hpp"
#include "sim/engine.hpp"

namespace pio {
namespace {

using pfs::OstIndex;

SimTime ms(double v) { return SimTime::from_ms(v); }

bool contains(const std::vector<OstIndex>& targets, OstIndex ost) {
  return std::find(targets.begin(), targets.end(), ost) != targets.end();
}

pfs::ClusterMap all_up(std::uint32_t osts) {
  return pfs::ClusterMap{1, std::vector<pfs::OstState>(osts, pfs::OstState::kUp)};
}

/// A small cluster-mode PFS. Short horizon: sync-style engine.run() drains
/// every heartbeat up to the horizon, so tests keep it in the low hundreds
/// of ms to stay fast.
pfs::PfsConfig cluster_pfs(std::uint32_t osts, pfs::PlacementMode mode, SimTime horizon) {
  pfs::PfsConfig config;
  config.clients = 2;
  config.io_nodes = 1;
  config.osts = osts;
  config.disk_kind = pfs::DiskKind::kSsd;
  config.mds.default_layout = pfs::StripeLayout{Bytes::from_kib(64), 2, 0};
  config.cluster.enabled = true;
  config.cluster.placement = mode;
  config.cluster.heartbeat_interval = ms(5.0);
  config.cluster.heartbeat_grace = 3;
  config.cluster.horizon = horizon;
  return config;
}

/// Replicated layout + contents tracking (the durability layer is what makes
/// migration and F4 observable).
void enable_tracking(pfs::PfsConfig& config) {
  config.durability.track_contents = true;
  config.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(256.0);
}

/// Count stripes whose target set changed between two maps, asserting the
/// caller-supplied witness predicate on every changed stripe.
struct PlacementDiff {
  std::uint64_t changed = 0;
  std::uint64_t total = 0;
};

template <typename Witness>
PlacementDiff diff_placement(const pfs::ClusterMap& before, const pfs::ClusterMap& after,
                             pfs::PlacementMode mode, const pfs::StripeLayout& layout,
                             std::uint32_t replicas, Witness&& witness) {
  PlacementDiff diff;
  for (const std::string& path : {std::string("/a/data"), std::string("/b/data")}) {
    const std::uint64_t key = pfs::file_placement_key(path);
    for (std::uint64_t stripe = 0; stripe < 64; ++stripe) {
      const auto t_before = pfs::placement_targets(before, mode, layout, key, stripe, replicas);
      const auto t_after = pfs::placement_targets(after, mode, layout, key, stripe, replicas);
      ++diff.total;
      if (t_before != t_after) {
        ++diff.changed;
        witness(t_before, t_after);
      }
    }
  }
  return diff;
}

/// The migration bytes one epoch transition should mark: for every written
/// stripe, each new-placement target that was not an old-placement holder
/// owes one stripe of resync.
Bytes expected_migration(const pfs::ClusterMap& before, const pfs::ClusterMap& after,
                         pfs::PlacementMode mode, const pfs::StripeLayout& layout,
                         const std::vector<std::string>& paths, std::uint64_t stripes_per_file) {
  std::uint64_t marked = 0;
  for (const std::string& path : paths) {
    const std::uint64_t key = pfs::file_placement_key(path);
    for (std::uint64_t stripe = 0; stripe < stripes_per_file; ++stripe) {
      const auto t_old = pfs::placement_targets(before, mode, layout, key, stripe,
                                                layout.replicas);
      const auto t_new = pfs::placement_targets(after, mode, layout, key, stripe,
                                                layout.replicas);
      for (const OstIndex target : t_new) {
        if (!contains(t_old, target)) marked += layout.stripe_size.count();
      }
    }
  }
  return Bytes{marked};
}

// ------------------------------------------------------------ placement

TEST(ClusterPlacement, HrwIsDeterministicAndDistinct) {
  const auto map = all_up(8);
  const pfs::StripeLayout layout{Bytes::from_kib(64), 4, 0, 3};
  const std::uint64_t key = pfs::file_placement_key("/exp/checkpoint.0");
  for (std::uint64_t stripe = 0; stripe < 32; ++stripe) {
    const auto first = pfs::placement_targets(map, pfs::PlacementMode::kRendezvousHash, layout,
                                              key, stripe, 3);
    const auto second = pfs::placement_targets(map, pfs::PlacementMode::kRendezvousHash, layout,
                                               key, stripe, 3);
    EXPECT_EQ(first, second);
    ASSERT_EQ(first.size(), 3u);
    auto sorted = first;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end()) << "duplicate replica";
  }
  // Two files with the same layout spread independently: their primaries
  // cannot all coincide across 32 stripes unless the file key is dead.
  const std::uint64_t other = pfs::file_placement_key("/exp/checkpoint.1");
  std::uint64_t same_primary = 0;
  for (std::uint64_t stripe = 0; stripe < 32; ++stripe) {
    const auto a = pfs::placement_targets(map, pfs::PlacementMode::kRendezvousHash, layout, key,
                                          stripe, 1);
    const auto b = pfs::placement_targets(map, pfs::PlacementMode::kRendezvousHash, layout,
                                          other, stripe, 1);
    if (a == b) ++same_primary;
  }
  EXPECT_LT(same_primary, 32u);
}

TEST(ClusterPlacement, HrwRemovalMovesOnlyStripesThatLostAWinner) {
  const auto before = all_up(8);
  auto after = before;
  after.set_state(3, pfs::OstState::kDown);
  const pfs::StripeLayout layout{Bytes::from_kib(64), 4, 0, 3};
  const auto diff = diff_placement(
      before, after, pfs::PlacementMode::kRendezvousHash, layout, 3,
      [](const std::vector<OstIndex>& t_before, const std::vector<OstIndex>& t_after) {
        // HRW's minimal-disruption guarantee: a stripe moves iff the lost
        // OST was one of its winners, and survivors keep their slots.
        EXPECT_TRUE(contains(t_before, 3));
        EXPECT_FALSE(contains(t_after, 3));
      });
  EXPECT_GT(diff.changed, 0u);
  // Only the stripes that had OST 3 as a winner move: ~replicas/pool of the
  // total (3/8 here), far from a full reshuffle.
  EXPECT_LT(diff.changed, diff.total * 6 / 10);
  // And the converse: unchanged stripes never had OST 3.
  std::uint64_t with_lost = 0;
  const std::uint64_t key = pfs::file_placement_key("/a/data");
  for (std::uint64_t stripe = 0; stripe < 64; ++stripe) {
    const auto t = pfs::placement_targets(before, pfs::PlacementMode::kRendezvousHash, layout,
                                          key, stripe, 3);
    if (contains(t, 3)) ++with_lost;
  }
  EXPECT_GT(with_lost, 0u);
}

TEST(ClusterPlacement, RoundRobinReshufflesFarMoreThanHrw) {
  const auto before = all_up(8);
  auto after = before;
  after.set_state(3, pfs::OstState::kDown);
  const pfs::StripeLayout layout{Bytes::from_kib(64), 4, 0, 3};
  const auto nop = [](const std::vector<OstIndex>&, const std::vector<OstIndex>&) {};
  const auto hrw = diff_placement(before, after, pfs::PlacementMode::kRendezvousHash, layout, 3,
                                  nop);
  const auto rr = diff_placement(before, after, pfs::PlacementMode::kRoundRobin, layout, 3, nop);
  // The pool shrank 8 -> 7: round-robin's modulus change moves nearly every
  // stripe while HRW moves only the lost OST's share.
  EXPECT_GT(rr.changed, hrw.changed);
  EXPECT_GT(rr.changed, rr.total / 2);
}

TEST(ClusterPlacement, HrwJoinMovesOnlyStripesTheNewOstWins) {
  auto before = all_up(8);
  before.set_state(7, pfs::OstState::kDecommissioned);
  const auto after = all_up(8);
  const pfs::StripeLayout layout{Bytes::from_kib(64), 4, 0, 3};
  const auto diff = diff_placement(
      before, after, pfs::PlacementMode::kRendezvousHash, layout, 3,
      [](const std::vector<OstIndex>& t_before, const std::vector<OstIndex>& t_after) {
        EXPECT_TRUE(contains(t_after, 7));
        EXPECT_FALSE(contains(t_before, 7));
      });
  EXPECT_GT(diff.changed, 0u);
  EXPECT_LT(diff.changed, diff.total * 6 / 10);
}

TEST(ClusterPlacement, DegradedPoolsClampAndEmpty) {
  const pfs::StripeLayout layout{Bytes::from_kib(64), 4, 0, 3};
  const std::uint64_t key = pfs::file_placement_key("/a/data");
  pfs::ClusterMap dead{1, std::vector<pfs::OstState>(4, pfs::OstState::kDown)};
  EXPECT_TRUE(pfs::placement_targets(dead, pfs::PlacementMode::kRendezvousHash, layout, key, 0, 3)
                  .empty());
  // Draining OSTs serve reads but take no new placements.
  pfs::ClusterMap draining{1, std::vector<pfs::OstState>(4, pfs::OstState::kDraining)};
  draining.set_state(2, pfs::OstState::kUp);
  const auto only = pfs::placement_targets(draining, pfs::PlacementMode::kRendezvousHash, layout,
                                           key, 5, 3);
  ASSERT_EQ(only.size(), 1u);  // want 3, pool has 1
  EXPECT_EQ(only.front(), 2u);
  EXPECT_TRUE(draining.serving(0));
  EXPECT_FALSE(draining.placeable(0));
}

// ------------------------------------------------------------ validation

TEST(ClusterConfig, RejectsInvalidConfigurations) {
  {
    sim::Engine engine{1};
    auto config = cluster_pfs(4, pfs::PlacementMode::kRendezvousHash, ms(100.0));
    config.bb_placement = pfs::BbPlacement::kPerIoNode;
    EXPECT_THROW(pfs::PfsModel(engine, config), std::invalid_argument);
  }
  {
    sim::Engine engine{1};
    auto config = cluster_pfs(4, pfs::PlacementMode::kRendezvousHash, ms(100.0));
    config.cluster.heartbeat_grace = 0;
    EXPECT_THROW(pfs::PfsModel(engine, config), std::invalid_argument);
  }
  {
    sim::Engine engine{1};
    auto config = cluster_pfs(4, pfs::PlacementMode::kRendezvousHash, ms(100.0));
    config.cluster.heartbeat_interval = SimTime::zero();
    EXPECT_THROW(pfs::PfsModel(engine, config), std::invalid_argument);
  }
  {
    sim::Engine engine{1};
    auto config = cluster_pfs(4, pfs::PlacementMode::kRendezvousHash, ms(100.0));
    config.cluster.join(4, ms(10.0));  // no such OST
    EXPECT_THROW(pfs::PfsModel(engine, config), std::invalid_argument);
  }
  {
    sim::Engine engine{1};
    auto config = cluster_pfs(4, pfs::PlacementMode::kRendezvousHash, ms(100.0));
    config.cluster.drain(1, ms(200.0));  // past the heartbeat horizon
    EXPECT_THROW(pfs::PfsModel(engine, config), std::invalid_argument);
  }
}

// ------------------------------------------------------------ detection

TEST(ClusterHeartbeat, DetectsCrashWithinGraceBoundAndRecovery) {
  auto config = cluster_pfs(4, pfs::PlacementMode::kRendezvousHash, ms(500.0));
  config.faults.ost_down(1, ms(100.0), ms(300.0));
  sim::Engine engine{7};
  pfs::PfsModel model{engine, config};
  std::vector<obs::Span> downs, ups;
  engine.set_span_sink([&](const obs::Span& s) {
    if (s.layer != obs::Layer::kClient) return;
    const auto kind = static_cast<pfs::ResilienceEventKind>(s.kind);
    if (kind == pfs::ResilienceEventKind::kDetectedDown) downs.push_back(s);
    if (kind == pfs::ResilienceEventKind::kDetectedUp) ups.push_back(s);
  });
  engine.run();
  engine.assert_drained();

  ASSERT_EQ(downs.size(), 1u);
  EXPECT_EQ(downs[0].component, 1u);
  // Non-omniscient: detection trails the true crash by up to the grace
  // period plus one jittered interval (plus header delivery).
  EXPECT_GT(downs[0].end, ms(100.0));
  EXPECT_LT(downs[0].end, ms(122.0));
  ASSERT_EQ(ups.size(), 1u);
  EXPECT_EQ(ups[0].component, 1u);
  // Recovery is noticed on the next delivered beat, not at the true instant.
  EXPECT_GT(ups[0].end, ms(300.0));
  EXPECT_LT(ups[0].end, ms(307.0));

  EXPECT_EQ(model.resilience_stats().down_detections, 1u);
  EXPECT_EQ(model.resilience_stats().up_detections, 1u);
  // Three epochs: initial, down, up — with the full history retained.
  EXPECT_EQ(model.cluster_map().epoch(), 3u);
  ASSERT_EQ(model.cluster_map_history().size(), 3u);
  EXPECT_EQ(model.cluster_map_history()[1].state(1), pfs::OstState::kDown);
  EXPECT_EQ(model.cluster_map().state(1), pfs::OstState::kUp);
}

TEST(ClusterHeartbeat, DetectionLatencyTracksGracePeriod) {
  // Jitter off: the grace period is the only knob moving, so detection
  // latency must shrink strictly monotonically as the grace shrinks.
  std::vector<SimTime> detected;
  for (const std::uint32_t grace : {8u, 5u, 3u, 2u}) {
    auto config = cluster_pfs(4, pfs::PlacementMode::kRendezvousHash, ms(300.0));
    config.cluster.heartbeat_jitter_fraction = 0.0;
    config.cluster.heartbeat_grace = grace;
    config.faults.ost_down(1, ms(100.0), SimTime::from_sec(10.0));  // never recovers
    sim::Engine engine{7};
    pfs::PfsModel model{engine, config};
    std::vector<SimTime> downs;
    engine.set_span_sink([&](const obs::Span& s) {
      if (s.layer == obs::Layer::kClient &&
          s.kind == static_cast<std::uint8_t>(pfs::ResilienceEventKind::kDetectedDown)) {
        downs.push_back(s.end);
      }
    });
    engine.run();
    engine.assert_drained();
    ASSERT_EQ(downs.size(), 1u) << "grace " << grace;
    EXPECT_GT(downs[0], ms(100.0) + config.cluster.heartbeat_interval *
                                        static_cast<std::int64_t>(grace - 1));
    EXPECT_LT(downs[0], ms(101.0) + config.cluster.grace_period());
    detected.push_back(downs[0]);
  }
  for (std::size_t i = 1; i < detected.size(); ++i) {
    EXPECT_LT(detected[i], detected[i - 1]) << "detection latency not monotone in grace";
  }
}

// ------------------------------------------------------------ protocol

/// Satellite: RetryPolicy x late detection. A write issued inside the
/// detection window addresses a dead-but-undetected OST, fails at the door,
/// and its retries ride through detection: a kOstDown rejection first, then
/// a kStaleMap bounce against the undetected epoch, a map refresh, and a
/// clean completion on the shrunk pool — all inside one op.
TEST(ClusterProtocol, WriteInsideDetectionWindowFailsThenRecovers) {
  auto config = cluster_pfs(2, pfs::PlacementMode::kRendezvousHash, ms(300.0));
  enable_tracking(config);
  config.retry.max_attempts = 8;
  config.retry.base_backoff = ms(2.0);
  config.faults.ost_down(1, ms(50.0), ms(200.0));
  const pfs::StripeLayout layout{Bytes::from_kib(64), 2, 0, 2};

  sim::Engine engine{11};
  pfs::PfsModel model{engine, config};
  std::optional<pfs::MetaResult> created;
  std::optional<pfs::IoResult> healthy, windowed;
  engine.schedule_at(SimTime::zero(), [&] {
    model.meta(0, pfs::MetaOp::kCreate, model.mds().intern("/f"),
               [&](pfs::MetaResult r) { created = r; }, layout);
  });
  engine.schedule_at(ms(5.0), [&] {
    model.io(0, model.mds().intern("/f"), layout, 0, Bytes::from_kib(128), true,
             [&](pfs::IoResult r) { healthy = r; });
  });
  engine.schedule_at(ms(55.0), [&] {
    model.io(0, model.mds().intern("/f"), layout, Bytes::from_kib(128).count(),
             Bytes::from_kib(128), true, [&](pfs::IoResult r) { windowed = r; });
  });
  engine.run();
  engine.assert_drained();
  model.assert_quiescent();  // F2 + F3 + F4 all hold through the window

  ASSERT_TRUE(created.has_value());
  EXPECT_TRUE(created->ok());
  ASSERT_TRUE(healthy.has_value());
  EXPECT_TRUE(healthy->ok);
  EXPECT_EQ(healthy->attempts, 1u);
  ASSERT_TRUE(windowed.has_value());
  EXPECT_TRUE(windowed->ok) << "write could not ride through detection";
  EXPECT_GE(windowed->attempts, 2u);

  const pfs::ResilienceStats& stats = model.resilience_stats();
  EXPECT_GE(stats.retries, 1u);            // kOstDown rejections inside the window
  EXPECT_GE(stats.stale_map_retries, 1u);  // the bounce once the epoch moved
  EXPECT_GE(stats.map_refreshes, 1u);
  EXPECT_EQ(stats.down_detections, 1u);
  EXPECT_EQ(stats.up_detections, 1u);
  EXPECT_GE(model.client_epoch(0), 2u);
  // The recovered OST owes exactly the windowed write's two stripes, which
  // the post-recovery epoch marks and the migration rebuild settles.
  EXPECT_EQ(stats.migration_marked_bytes.count(), Bytes::from_kib(128).count());
  EXPECT_GE(stats.rebuilds_completed, 1u);
}

TEST(ClusterProtocol, StaleReadAfterJoinBouncesRefreshesAndSucceeds) {
  auto config = cluster_pfs(3, pfs::PlacementMode::kRendezvousHash, ms(200.0));
  enable_tracking(config);
  config.retry.max_attempts = 4;
  config.retry.base_backoff = ms(1.0);
  config.cluster.initial_absent = {2};
  config.cluster.join(2, ms(40.0));
  const pfs::StripeLayout layout{Bytes::from_kib(64), 2, 0, 2};

  sim::Engine engine{13};
  pfs::PfsModel model{engine, config};
  std::optional<pfs::IoResult> wrote;
  std::vector<pfs::IoResult> reads;
  engine.schedule_at(SimTime::zero(), [&] {
    model.meta(0, pfs::MetaOp::kCreate, model.mds().intern("/data"), [](pfs::MetaResult) {},
               layout);
  });
  engine.schedule_at(ms(5.0), [&] {
    model.io(0, model.mds().intern("/data"), layout, 0, Bytes::from_kib(512), true,
             [&](pfs::IoResult r) { wrote = r; });
  });
  engine.schedule_at(ms(100.0), [&] {
    for (std::uint64_t stripe = 0; stripe < 8; ++stripe) {
      model.io(0, model.mds().intern("/data"), layout, stripe * Bytes::from_kib(64).count(),
               Bytes::from_kib(64), false, [&](pfs::IoResult r) { reads.push_back(r); });
    }
  });
  engine.run();
  engine.assert_drained();
  model.assert_quiescent();

  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->ok);
  ASSERT_EQ(reads.size(), 8u);
  for (const auto& r : reads) EXPECT_TRUE(r.ok);

  // The join must have moved at least one written stripe onto the new OST
  // (otherwise this test proves nothing — guarded, not assumed).
  ASSERT_EQ(model.cluster_map_history().size(), 2u);
  const Bytes expected = expected_migration(
      model.cluster_map_history()[0], model.cluster_map_history()[1],
      config.cluster.placement, layout, {"/data"}, 8);
  ASSERT_GT(expected.count(), 0u);
  const pfs::ResilienceStats& stats = model.resilience_stats();
  EXPECT_EQ(stats.migration_marked_bytes.count(), expected.count());
  // Readers held the pre-join epoch: the moved stripes bounce with
  // kStaleMap, refresh, and complete on the new map.
  EXPECT_GE(stats.stale_map_retries, 1u);
  EXPECT_GE(stats.map_refreshes, 1u);
  EXPECT_EQ(model.client_epoch(0), 2u);
  EXPECT_EQ(stats.down_detections, 0u);  // a join is not weather
}

// ------------------------------------------------------------ migration

TEST(ClusterMigration, HrwVolumeMatchesPlacementDiffAndBeatsRoundRobin) {
  const pfs::StripeLayout layout{Bytes::from_kib(64), 4, 0, 2};
  const std::vector<std::string> paths = {"/m-a", "/m-b", "/m-c", "/m-d"};
  const auto run_mode = [&](pfs::PlacementMode mode) {
    auto config = cluster_pfs(6, mode, ms(400.0));
    enable_tracking(config);
    config.retry.max_attempts = 4;
    config.retry.base_backoff = ms(1.0);
    // Drain OST 0: every round-robin pool slot shifts by one (the worst-case
    // reshuffle), while HRW still moves only the stripes OST 0 was winning.
    config.cluster.drain(0, ms(60.0)).decommission(0, ms(250.0));

    sim::Engine engine{17};
    pfs::PfsModel model{engine, config};
    std::vector<pfs::IoResult> writes, reads;
    engine.schedule_at(SimTime::zero(), [&] {
      for (const auto& path : paths) {
        model.meta(0, pfs::MetaOp::kCreate, model.mds().intern(path), [](pfs::MetaResult) {},
                   layout);
      }
    });
    engine.schedule_at(ms(5.0), [&] {
      for (const auto& path : paths) {
        model.io(0, model.mds().intern(path), layout, 0, Bytes::from_kib(256), true,
                 [&](pfs::IoResult r) { writes.push_back(r); });
      }
    });
    engine.schedule_at(ms(350.0), [&] {
      for (const auto& path : paths) {
        for (std::uint64_t stripe = 0; stripe < 4; ++stripe) {
          model.io(0, model.mds().intern(path), layout, stripe * Bytes::from_kib(64).count(),
                   Bytes::from_kib(64), false, [&](pfs::IoResult r) { reads.push_back(r); });
        }
      }
    });
    engine.run();
    engine.assert_drained();
    // F4 with the drained OST fully decommissioned: every acked byte is
    // still readable from the surviving placement.
    model.assert_quiescent();

    EXPECT_EQ(writes.size(), paths.size());
    for (const auto& w : writes) EXPECT_TRUE(w.ok);
    EXPECT_EQ(reads.size(), paths.size() * 4);
    for (const auto& r : reads) EXPECT_TRUE(r.ok);

    // Epochs: initial, drain, decommission. The decommission changes no
    // placement (a draining OST already left the pool), so the only marks
    // come from the drain epoch — and must equal the pure placement diff.
    const auto& history = model.cluster_map_history();
    EXPECT_EQ(history.size(), 3u);
    const Bytes expected =
        expected_migration(history[0], history[1], mode, layout, paths, 4);
    EXPECT_EQ(model.resilience_stats().migration_marked_bytes.count(), expected.count())
        << pfs::to_string(mode);
    EXPECT_EQ(model.cluster_map().state(0), pfs::OstState::kDecommissioned);
    return model.resilience_stats().migration_marked_bytes;
  };

  const Bytes hrw = run_mode(pfs::PlacementMode::kRendezvousHash);
  const Bytes rr = run_mode(pfs::PlacementMode::kRoundRobin);
  EXPECT_GT(hrw.count(), 0u);
  // The tentpole's migration-volume invariant: rendezvous hashing moves only
  // the drained OST's share while round-robin reshuffles the file body.
  EXPECT_LT(hrw.count(), rr.count());
}

// ------------------------------------------------------------ invariant F4

TEST(ClusterF4, AckedDataReadableAcrossJoinDrainCrashDecommission) {
  auto config = cluster_pfs(5, pfs::PlacementMode::kRendezvousHash, ms(400.0));
  enable_tracking(config);
  config.retry.max_attempts = 6;
  config.retry.base_backoff = ms(2.0);
  config.cluster.initial_absent = {4};
  config.cluster.join(4, ms(40.0)).drain(0, ms(80.0)).decommission(0, ms(250.0));
  config.faults.ost_down(1, ms(120.0), ms(200.0));
  const pfs::StripeLayout layout{Bytes::from_kib(64), 4, 0, 2};
  const std::vector<std::string> paths = {"/ck-a", "/ck-b", "/ck-c"};

  sim::Engine engine{19};
  pfs::PfsModel model{engine, config};
  std::vector<pfs::IoResult> writes, reads;
  engine.schedule_at(SimTime::zero(), [&] {
    for (const auto& path : paths) {
      model.meta(0, pfs::MetaOp::kCreate, model.mds().intern(path), [](pfs::MetaResult) {}, layout);
    }
  });
  engine.schedule_at(ms(5.0), [&] {
    for (const auto& path : paths) {
      model.io(0, model.mds().intern(path), layout, 0, Bytes::from_kib(256), true,
               [&](pfs::IoResult r) { writes.push_back(r); });
    }
  });
  engine.schedule_at(ms(350.0), [&] {
    for (const auto& path : paths) {
      for (std::uint64_t stripe = 0; stripe < 4; ++stripe) {
        model.io(0, model.mds().intern(path), layout, stripe * Bytes::from_kib(64).count(),
                 Bytes::from_kib(64), false, [&](pfs::IoResult r) { reads.push_back(r); });
      }
    }
  });
  engine.run();
  engine.assert_drained();
  // The F4 acceptance walk: data written before any churn, then a live
  // join, a drain, an undetected-then-detected crash with recovery, and a
  // decommission of the drained OST — every acked byte must still be held
  // by a serving OST under the final map.
  model.assert_quiescent();

  EXPECT_EQ(writes.size(), paths.size());
  for (const auto& w : writes) EXPECT_TRUE(w.ok);
  EXPECT_EQ(reads.size(), paths.size() * 4);
  for (const auto& r : reads) EXPECT_TRUE(r.ok);

  // Six epochs: initial, join, drain, detected-down, detected-up,
  // decommission.
  EXPECT_EQ(model.cluster_map().epoch(), 6u);
  EXPECT_EQ(model.cluster_map_history().size(), 6u);
  EXPECT_EQ(model.cluster_map().state(0), pfs::OstState::kDecommissioned);
  EXPECT_EQ(model.cluster_map().state(1), pfs::OstState::kUp);
  EXPECT_EQ(model.cluster_map().state(4), pfs::OstState::kUp);

  const pfs::ResilienceStats& stats = model.resilience_stats();
  EXPECT_EQ(stats.down_detections, 1u);
  EXPECT_EQ(stats.up_detections, 1u);
  EXPECT_GT(stats.migration_marked_bytes.count(), 0u);
  EXPECT_GE(stats.rebuilds_completed, 1u);
  // The churned placements differ from the readers' initial epoch for at
  // least one stripe, so the stale-map protocol must have fired.
  std::uint64_t moved = 0;
  for (const auto& path : paths) {
    const std::uint64_t key = pfs::file_placement_key(path);
    for (std::uint64_t stripe = 0; stripe < 4; ++stripe) {
      const auto t1 = pfs::placement_targets(model.cluster_map_history()[0],
                                             config.cluster.placement, layout, key, stripe, 2);
      const auto t6 = pfs::placement_targets(model.cluster_map(), config.cluster.placement,
                                             layout, key, stripe, 2);
      if (t1 != t6) ++moved;
    }
  }
  ASSERT_GT(moved, 0u);
  EXPECT_GE(stats.stale_map_retries, 1u);
  EXPECT_GE(stats.map_refreshes, 1u);
}

}  // namespace
}  // namespace pio
