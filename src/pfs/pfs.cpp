#include "pfs/pfs.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

namespace pio::pfs {

namespace {

std::unique_ptr<DiskModel> make_disk(const PfsConfig& config, sim::Engine& engine,
                                     std::uint32_t index) {
  if (config.disk_kind == DiskKind::kHdd) {
    // Each disk gets its own jitter stream so device behaviour is
    // independent of OST count and submission interleaving.
    return make_hdd(config.hdd, engine.rng_stream(0xD15C0000ULL + index));
  }
  return make_ssd(config.ssd);
}

}  // namespace

/// One logical io() op across its (possibly many) attempts. It stays live
/// until it has settled *and* every attempt it started has completed, so an
/// orphan draining after a timeout still finds it: `refs` counts the op's
/// own reference (dropped at settle) plus one per attempt in flight.
struct PfsModel::IoOp {
  ClientId client = 0;
  std::uint64_t file_token = 0;  ///< files_ entry (and durability file when tracking)
  StripeLayout layout{};
  std::uint64_t offset = 0;
  Bytes size = Bytes::zero();
  bool is_write = false;
  SimTime issued = SimTime::zero();
  std::uint32_t attempt = 0;  ///< attempts started so far
  std::uint32_t refs = 0;
  WriteToken token = 0;       ///< payload identity for tracked writes
  std::uint64_t map_epoch = 1;  ///< client's cached epoch for this attempt
  // Overload control (DESIGN.md §14); all inert at their defaults.
  SimTime deadline = SimTime::zero();        ///< absolute end-to-end deadline (0 = none)
  SimTime attempt_started = SimTime::zero(); ///< current attempt's start (RTT sample)
  SimTime retry_after = SimTime::zero();     ///< server pacing hint from the last attempt
  std::function<void(IoResult)> done;
};

/// One attempt of an io() op, live from its start to its completion. Its
/// settle latch is raced by the completion and the timeout event: whichever
/// fires first wins; the loser becomes a no-op (completion, then an orphan)
/// or is cancelled (timeout).
struct PfsModel::Attempt {
  sim::Handle op = 0;
  bool settled = false;
  sim::EventId timeout_event = 0;
  bool ok = false;                 ///< the backend's verdict, on its way back
  IoError error = IoError::kNone;
};

/// Fan-out latch for one backend_io call: completes when the last shipment
/// responds; the call succeeds only if every shipment did. kDataLost
/// dominates the reported error (retries cannot resurrect lost data).
struct PfsModel::BackendFanout {
  std::size_t remaining = 0;
  bool all_ok = true;
  IoError error = IoError::kNone;
  SimTime retry_after = SimTime::zero();  ///< largest server pacing hint seen
  std::function<void(bool, IoError, SimTime)> done;

  void fail(IoError e) {
    all_ok = false;
    if (error == IoError::kDataLost) return;
    // A stale-map bounce must stay visible through other chunk failures:
    // the refresh-and-retry path is the only one that can make progress.
    if (error == IoError::kStaleMap && e != IoError::kDataLost) return;
    error = e;
  }
  void hint(SimTime t) {
    if (t > retry_after) retry_after = t;
  }
};

/// One chunk-to-OST shipment of a backend_io call. file_lo/file_hi are the
/// chunk's range in *file offsets* — the durability ledger's coordinates.
/// backend_io plans the first six fields; a shipment in flight also carries
/// its call's context and the OST's verdict.
struct PfsModel::Shipment {
  OstIndex target = 0;
  std::uint64_t object_offset = 0;
  Bytes length = Bytes::zero();
  std::uint64_t file_lo = 0;
  std::uint64_t file_hi = 0;
  /// Stale-map bounce: the OST rejects the addressing epoch with kStaleMap
  /// (header out, error header back) without touching the device.
  bool stale = false;
  sim::Handle fan = 0;
  std::uint32_t ion = 0;
  bool is_write = false;
  bool tracked = false;
  std::uint64_t file = 0;
  WriteToken wtoken = 0;
  bool ok = false;
  bool content_ok = true;  ///< a tracked read found the acknowledged data
  IoError fail_error = IoError::kNone;
};

/// One meta() call, from the client's request to the reply's return.
struct PfsModel::MetaCall {
  ClientId client = 0;
  MetaOp op = MetaOp::kStat;
  FileId file = 0;
  std::optional<StripeLayout> layout;
  MetaResult result;
  std::function<void(MetaResult)> done;
};

/// One recovering OST's resync pass over the ranges it missed while down.
struct PfsModel::RebuildState {
  bool active = false;
  bool migration = false;  ///< epoch-change migration pass (drain-stream paced)
  std::vector<DirtyRange> queue;  ///< pieces in (file, offset) order
  std::size_t next = 0;           ///< queue index of the next piece
  Bytes total = Bytes::zero();
  Bytes done = Bytes::zero();
  SimTime started = SimTime::zero();
};

PfsModel::PfsModel(sim::Engine& engine, const PfsConfig& config)
    : engine_(engine),
      config_(config),
      retry_rng_(engine.rng_stream(kRetryRngStream)),
      rebuild_rng_(engine.rng_stream(kRebuildRngStream)),
      breaker_rng_(engine.rng_stream(kBreakerRngStream)),
      latency_(config.retry),
      budget_(config.retry.budget_ratio, config.retry.budget_cap),
      heartbeat_rng_(engine.rng_stream(kHeartbeatRngStream)),
      drain_rng_(engine.rng_stream(kDrainRngStream)) {
  if (config.clients == 0 || config.io_nodes == 0 || config.osts == 0) {
    throw std::invalid_argument("PfsModel: clients, io_nodes, osts must all be > 0");
  }
  if (config.cluster.enabled) {
    if (config.bb_placement != BbPlacement::kNone) {
      throw std::invalid_argument(
          "PfsModel: the cluster map is incompatible with burst buffers in this "
          "release (the staging tier would bypass the stale-map protocol)");
    }
    if (config.cluster.heartbeat_interval <= SimTime::zero()) {
      throw std::invalid_argument("PfsModel: cluster.heartbeat_interval must be > 0");
    }
    if (config.cluster.heartbeat_grace == 0) {
      throw std::invalid_argument("PfsModel: cluster.heartbeat_grace must be >= 1");
    }
    for (const OstIndex absent : config.cluster.initial_absent) {
      if (absent >= config.osts) {
        throw std::invalid_argument("PfsModel: cluster.initial_absent names a bad OST");
      }
    }
    for (const MembershipEvent& ev : config.cluster.membership) {
      if (ev.ost >= config.osts) {
        throw std::invalid_argument("PfsModel: cluster.membership names a bad OST");
      }
      if (ev.at > config.cluster.horizon) {
        throw std::invalid_argument(
            "PfsModel: cluster.membership event past the heartbeat horizon (the "
            "monitor would never observe its consequences)");
      }
    }
  }
  if (!config.durability.track_contents && config.mds.default_layout.replicas > 1) {
    throw std::invalid_argument(
        "PfsModel: replicated layouts require durability.track_contents");
  }
  if (config.durability.track_contents && config.bb_placement != BbPlacement::kNone) {
    throw std::invalid_argument(
        "PfsModel: durability tracking is incompatible with burst buffers (a "
        "write-back tier that drops dirty blocks on a failed drain cannot honour F3)");
  }
  // Materialize the run's fault weather up front: scripted events verbatim,
  // plus the stochastic injector's schedule drawn from the engine seed.
  std::vector<fault::FaultEvent> fault_events = config.faults.events;
  if (config.fault_injector.has_value()) {
    fault::InjectorConfig injector = *config.fault_injector;
    injector.osts = config.osts;
    auto injected = fault::inject(injector, engine.rng_stream(fault::kFaultRngStream));
    fault_events.insert(fault_events.end(), injected.begin(), injected.end());
  }
  timeline_ = fault::Timeline{std::move(fault_events)};

  compute_fabric_ = std::make_unique<net::Fabric>(engine, config.compute_fabric,
                                                  config.clients + config.io_nodes);
  storage_fabric_ = std::make_unique<net::Fabric>(engine, config.storage_fabric,
                                                  config.io_nodes + config.osts + 1);
  mds_ = std::make_unique<MetadataServer>(engine, config.mds);
  osts_.reserve(config.osts);
  for (std::uint32_t i = 0; i < config.osts; ++i) {
    osts_.push_back(std::make_unique<OstServer>(engine, i, make_disk(config, engine, i)));
  }
  if (config.admission.enabled()) {
    mds_->set_admission(config.admission);
    for (auto& ost : osts_) ost->set_admission(config.admission);
  }
  if (config.retry.breaker) {
    breakers_.reserve(config.osts);
    for (std::uint32_t i = 0; i < config.osts; ++i) {
      breakers_.emplace_back(config.retry.breaker_threshold, config.retry.breaker_open_base,
                             config.retry.breaker_open_jitter);
    }
  }
  if (!timeline_.empty()) {
    // Attach the weather only when there is any: the fair-weather hot path
    // stays free of per-op timeline queries.
    compute_fabric_->set_fault_timeline(&timeline_,
                                        {fault::ComponentKind::kComputeFabric, 0});
    storage_fabric_->set_fault_timeline(&timeline_,
                                        {fault::ComponentKind::kStorageFabric, 0});
    mds_->set_fault_timeline(&timeline_);
    for (auto& ost : osts_) ost->set_fault_timeline(&timeline_);
  }
  if (tracking() && !timeline_.empty() && !config.cluster.enabled) {
    // Online rebuild: every scripted/injected OST recovery wakes the resync
    // planner, which re-copies whatever that OST missed while down. This
    // trigger is omniscient (it reads the timeline) and is therefore
    // replaced by heartbeat detection + migration planning in cluster mode.
    for (std::uint32_t i = 0; i < config.osts; ++i) {
      const auto intervals = timeline_.down_intervals({fault::ComponentKind::kOst, i});
      for (const auto& [start, end] : intervals) {
        engine_.schedule_at(end, [this, i] { start_rebuild(i); });
      }
    }
  }
  if (config.cluster.enabled) {
    std::vector<OstState> states(config.osts, OstState::kUp);
    for (const OstIndex absent : config.cluster.initial_absent) {
      states[absent] = OstState::kDecommissioned;
    }
    map_ = ClusterMap{1, std::move(states)};
    map_history_.push_back(map_);
    client_epoch_.assign(config.clients, 1);
    hb_deadline_.assign(config.osts, 0);
    hb_ticking_.assign(config.osts, 0);
    hb_rng_.reserve(config.osts);
    for (std::uint32_t i = 0; i < config.osts; ++i) {
      hb_rng_.push_back(heartbeat_rng_.substream(i));
    }
    for (std::uint32_t i = 0; i < config.osts; ++i) {
      if (map_.state(i) == OstState::kDecommissioned) continue;
      arm_heartbeat(i);
      // Arm the initial grace deadline too: an OST dead from t=0 must still
      // be detected, not silently trusted forever. (Unless the grace window
      // itself outlives the heartbeat horizon — detection is horizon-bound.)
      if (config.cluster.grace_period() <= config.cluster.horizon) {
        hb_deadline_[i] = engine_.schedule_after(config.cluster.grace_period(),
                                                 [this, i] { heartbeat_deadline(i); });
      }
    }
    for (const MembershipEvent& ev : config.cluster.membership) {
      engine_.schedule_at(ev.at, [this, ev] { apply_membership(ev); });
    }
  }
  const std::uint32_t buffer_count = config.bb_placement == BbPlacement::kNone ? 0
                                     : config.bb_placement == BbPlacement::kShared
                                         ? 1
                                         : config.io_nodes;
  for (std::uint32_t b = 0; b < buffer_count; ++b) {
    // Drains re-enter the normal backend path from the owning I/O node, so
    // they contend with foreground traffic on the storage fabric. A drain
    // whose backend write fails (OST crash) completes anyway: the staged
    // data is dropped, mirroring a write-back cache losing dirty blocks.
    const std::uint32_t drain_ion = config.bb_placement == BbPlacement::kShared ? 0 : b;
    buffers_.push_back(std::make_unique<BurstBuffer>(
        engine, config.bb,
        [this, drain_ion](std::uint64_t file, std::uint64_t offset, Bytes size,
                          std::function<void()> on_done) {
          // Drains are untracked (file = 0): burst buffers and durability
          // tracking are mutually exclusive by construction. (So are burst
          // buffers and the cluster map, hence key/epoch are inert here.)
          backend_io(drain_ion, 0, file_info(file).layout, offset, size, /*is_write=*/true, 0,
                     /*key=*/0, /*epoch=*/1,
                     [done = std::move(on_done)](bool /*ok*/, IoError /*error*/,
                                                 SimTime /*retry_after*/) mutable {
                       if (done) done();
                     });
        },
        "bb" + std::to_string(b)));
  }
}

PfsModel::~PfsModel() = default;

net::EndpointId PfsModel::ion_of(ClientId client) const {
  return client % config_.io_nodes;
}

net::EndpointId PfsModel::compute_ep_of_ion(std::uint32_t ion) const {
  return config_.clients + ion;
}

net::EndpointId PfsModel::storage_ep_of_ost(OstIndex ost) const {
  return config_.io_nodes + ost;
}

net::EndpointId PfsModel::storage_ep_of_mds() const {
  return config_.io_nodes + config_.osts;
}

BurstBuffer* PfsModel::buffer_for_ion(std::uint32_t ion) {
  if (buffers_.empty()) return nullptr;
  if (config_.bb_placement == BbPlacement::kShared) return buffers_[0].get();
  return buffers_.at(ion).get();
}

fault::ComponentId PfsModel::bb_id_for_ion(std::uint32_t ion) const {
  const std::uint32_t index = config_.bb_placement == BbPlacement::kShared ? 0 : ion;
  return {fault::ComponentKind::kBurstBuffer, index};
}

const PfsModel::FileInfo& PfsModel::file_info(std::uint64_t token) const {
  sim::check::that(token >= 1 && token <= files_.size(), "file token names a known file",
                   [token] { return std::to_string(token); });
  return files_[token - 1];
}

void PfsModel::meta(ClientId client, MetaOp op, FileId file,
                    std::function<void(MetaResult)> on_done,
                    std::optional<StripeLayout> layout) {
  if (client >= config_.clients) throw std::out_of_range("PfsModel::meta: bad client");
  const sim::Handle m = metas_.acquire();
  MetaCall& call = metas_[m];
  call.client = client;
  call.op = op;
  call.file = file;
  call.layout = layout;
  call.done = std::move(on_done);
  // Request header: client -> ION (compute fabric) -> MDS (storage fabric).
  // An MDS down interval surfaces as MetaStatus::kUnavailable from the
  // server itself; the response header still travels back normally.
  compute_fabric_->send(client, compute_ep_of_ion(ion_of(client)), kHeader, [this, m] {
    storage_fabric_->send(ion_of(metas_[m].client), storage_ep_of_mds(), kHeader, [this, m] {
      const MetaCall& sent = metas_[m];
      mds_->request(
          sent.op, sent.file,
          [this, m](MetaResult result) { meta_replied(m, std::move(result)); }, sent.layout);
    });
  });
}

void PfsModel::meta_replied(sim::Handle m, MetaResult result) {
  metas_[m].result = std::move(result);
  // Response header back down the same path.
  storage_fabric_->send(storage_ep_of_mds(), ion_of(metas_[m].client), kHeader, [this, m] {
    const ClientId client = metas_[m].client;
    compute_fabric_->send(compute_ep_of_ion(ion_of(client)), client, kHeader, [this, m] {
      MetaCall& call = metas_[m];
      MetaResult reply = std::move(call.result);
      const std::function<void(MetaResult)> done = std::move(call.done);
      call.done = nullptr;
      metas_.release(m);
      if (done) done(std::move(reply));
    });
  });
}

OstIndex PfsModel::route_chunk(OstIndex home, SimTime now) {
  if (!config_.retry.failover || timeline_.empty()) return home;
  const fault::ComponentId home_id{fault::ComponentKind::kOst, home};
  if (!timeline_.down(home_id, now)) return home;
  for (std::uint32_t k = 1; k < config_.osts; ++k) {
    const OstIndex candidate = (home + k) % config_.osts;
    if (!timeline_.down({fault::ComponentKind::kOst, candidate}, now)) {
      note(ResilienceEventKind::kFailover);
      return candidate;
    }
  }
  return home;  // whole pool down: let the op fail at its home OST
}

bool PfsModel::ost_down(OstIndex ost, SimTime t) const {
  if (timeline_.empty()) return false;
  return timeline_.down({fault::ComponentKind::kOst, ost}, t);
}

// -- cluster membership ------------------------------------------------------

SimTime PfsModel::next_heartbeat_delay(OstIndex ost) {
  const ClusterMapConfig& cm = config_.cluster;
  double sec = cm.heartbeat_interval.sec();
  if (cm.heartbeat_jitter_fraction > 0.0) {
    sec *= 1.0 + hb_rng_[ost].uniform(-cm.heartbeat_jitter_fraction,
                                      cm.heartbeat_jitter_fraction);
  }
  return std::max(SimTime::from_us(1.0), SimTime::from_sec_ceil(sec));
}

void PfsModel::arm_heartbeat(OstIndex ost) {
  if (hb_ticking_[ost] != 0) return;
  hb_ticking_[ost] = 1;
  engine_.schedule_after(next_heartbeat_delay(ost), [this, ost] { heartbeat_tick(ost); });
}

void PfsModel::heartbeat_tick(OstIndex ost) {
  // The loop ends for good on decommission or past the horizon (bounded
  // weather window, like the fault injector's): nothing left to re-arm it.
  if (map_.state(ost) == OstState::kDecommissioned || engine_.now() > config_.cluster.horizon) {
    hb_ticking_[ost] = 0;
    return;
  }
  // Detection is NOT omniscient, but emission must be honest: a truly-dead
  // OST cannot send. The timeline is ground truth *at the sender only*.
  if (!ost_down(ost, engine_.now())) {
    storage_fabric_->send(storage_ep_of_ost(ost), storage_ep_of_mds(), kHeader,
                          [this, ost] { monitor_heard(ost); });
  }
  engine_.schedule_after(next_heartbeat_delay(ost), [this, ost] { heartbeat_tick(ost); });
}

void PfsModel::monitor_heard(OstIndex ost) {
  if (map_.state(ost) == OstState::kDecommissioned) return;  // parting shot, ignored
  if (hb_deadline_[ost] != 0) engine_.cancel(hb_deadline_[ost]);
  hb_deadline_[ost] = 0;
  // Re-arm only while the full grace window fits inside the horizon:
  // heartbeats stop at the horizon (bounded weather window), so a deadline
  // armed past it would mass-declare the silent-but-healthy cluster down.
  if (engine_.now() + config_.cluster.grace_period() <= config_.cluster.horizon) {
    hb_deadline_[ost] = engine_.schedule_after(config_.cluster.grace_period(),
                                               [this, ost] { heartbeat_deadline(ost); });
  }
  if (map_.state(ost) == OstState::kDown) {
    map_.set_state(ost, OstState::kUp);
    note(ResilienceEventKind::kDetectedUp, ost);
    publish_epoch();
  }
}

void PfsModel::heartbeat_deadline(OstIndex ost) {
  hb_deadline_[ost] = 0;
  const OstState state = map_.state(ost);
  if (state != OstState::kUp && state != OstState::kDraining) return;
  map_.set_state(ost, OstState::kDown);
  note(ResilienceEventKind::kDetectedDown, ost);
  publish_epoch();
}

void PfsModel::publish_epoch() {
  map_.bump_epoch();
  map_history_.push_back(map_);
  if (tracking()) plan_migration();
}

void PfsModel::apply_membership(const MembershipEvent& ev) {
  const OstIndex ost = ev.ost;
  switch (ev.change) {
    case MembershipChange::kJoin: {
      const OstState state = map_.state(ost);
      if (state == OstState::kUp || state == OstState::kDraining) return;  // already in
      map_.set_state(ost, OstState::kUp);
      if (engine_.now() <= config_.cluster.horizon) {
        arm_heartbeat(ost);
        // Same horizon discipline as monitor_heard: no grace window that
        // would outlive the heartbeat horizon.
        if (hb_deadline_[ost] == 0 &&
            engine_.now() + config_.cluster.grace_period() <= config_.cluster.horizon) {
          hb_deadline_[ost] = engine_.schedule_after(config_.cluster.grace_period(),
                                                     [this, ost] { heartbeat_deadline(ost); });
        }
      }
      break;
    }
    case MembershipChange::kDrain:
      if (map_.state(ost) != OstState::kUp) return;
      map_.set_state(ost, OstState::kDraining);
      break;
    case MembershipChange::kDecommission:
      if (map_.state(ost) == OstState::kDecommissioned) return;
      map_.set_state(ost, OstState::kDecommissioned);
      if (hb_deadline_[ost] != 0) {
        engine_.cancel(hb_deadline_[ost]);
        hb_deadline_[ost] = 0;
      }
      break;
  }
  publish_epoch();
}

void PfsModel::plan_migration() {
  if (!tracking()) return;
  const PlacementMode mode = config_.cluster.placement;
  std::vector<OstIndex> wake;
  for (const std::uint64_t file : ledger_.acked_files()) {
    const FileInfo& info = file_info(file);
    const StripeLayout& layout = info.layout;
    const std::uint32_t replicas = std::max<std::uint32_t>(1, layout.replicas);
    const std::uint64_t ss = layout.stripe_size.count();
    for (const auto& seg : ledger_.acked_segments(file)) {
      const auto chunks = decompose(layout, config_.osts, seg.lo, Bytes{seg.hi - seg.lo});
      for (const auto& chunk : chunks) {
        const std::uint64_t lo = chunk.file_offset;
        const std::uint64_t hi = lo + chunk.length.count();
        const auto targets =
            placement_targets(map_, mode, layout, info.key, lo / ss, replicas);
        for (const OstIndex target : targets) {
          if (ledger_.read_ok(file, target, lo, hi)) continue;
          ledger_.mark_missed(target, file, lo, hi);
          res_stats_.migration_marked_bytes = res_stats_.migration_marked_bytes + Bytes{hi - lo};
          wake.push_back(target);
        }
      }
    }
  }
  std::sort(wake.begin(), wake.end());
  wake.erase(std::unique(wake.begin(), wake.end()), wake.end());
  for (const OstIndex target : wake) {
    // A target the monitor believes dead cannot resync now; its debt stays
    // in the ledger and the next epoch that sees it serving re-plans.
    if (!map_.serving(target)) continue;
    start_rebuild(target, /*migration=*/true);
  }
}

void PfsModel::refresh_map(sim::Handle op) {
  ++res_stats_.map_refreshes;
  const ClientId client = ops_[op].client;
  // Header round trip: client -> ION (compute) -> MDS monitor (storage) and
  // back. The epoch is snapshotted when the reply *arrives*, so a refresh
  // can itself race another publication — exactly like a real monitor.
  compute_fabric_->send(client, compute_ep_of_ion(ion_of(client)), kHeader, [this, op] {
    storage_fabric_->send(ion_of(ops_[op].client), storage_ep_of_mds(), kHeader, [this, op] {
      storage_fabric_->send(storage_ep_of_mds(), ion_of(ops_[op].client), kHeader, [this, op] {
        const ClientId back = ops_[op].client;
        compute_fabric_->send(compute_ep_of_ion(ion_of(back)), back, kHeader, [this, op] {
          client_epoch_[ops_[op].client] = map_.epoch();
          start_attempt(op);
        });
      });
    });
  });
}

std::vector<OstIndex> PfsModel::read_candidates(std::uint64_t key, const StripeLayout& layout,
                                                std::uint64_t stripe_index,
                                                std::uint64_t from_epoch) const {
  const std::uint32_t replicas = tracking() ? std::max<std::uint32_t>(1, layout.replicas) : 1;
  const PlacementMode mode = config_.cluster.placement;
  std::vector<OstIndex> out;
  for (std::uint64_t e = std::min<std::uint64_t>(from_epoch, map_history_.size()); e >= 1; --e) {
    for (const OstIndex t :
         placement_targets(map_history_[e - 1], mode, layout, key, stripe_index, replicas)) {
      if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
    }
  }
  return out;
}

void PfsModel::backend_io(std::uint32_t ion, std::uint64_t file, const StripeLayout& layout,
                          std::uint64_t offset, Bytes size, bool is_write, WriteToken wtoken,
                          std::uint64_t key, std::uint64_t epoch,
                          std::function<void(bool ok, IoError error, SimTime retry_after)> on_done) {
  decompose(layout, config_.osts, offset, size, chunks_);
  const bool tracked = tracking() && file != 0;
  const std::uint32_t replicas = tracked ? layout.replicas : 1;
  const SimTime dispatched = engine_.now();

  const sim::Handle f = fanouts_.acquire();
  fanouts_[f] = BackendFanout{};
  fanouts_[f].done = std::move(on_done);

  // Plan every shipment first so the fan-out count is fixed before any
  // completion can fire.
  plan_.clear();
  for (const auto& chunk : chunks_) {
    const std::uint64_t flo = chunk.file_offset;
    const std::uint64_t fhi = chunk.file_offset + chunk.length.count();
    if (cluster_enabled()) {
      // Cluster-map placement: targets come from the client's cached epoch,
      // never from the fault timeline — clients only know what the monitor
      // has published. decompose() is reused for stripe tiling only; the
      // per-OST object offset is the file offset itself (collision-free and
      // placement-independent, so migrated chunks keep their address).
      const std::uint64_t stripe = flo / layout.stripe_size.count();
      const ClusterMap& cached = map_at(epoch);
      const PlacementMode mode = config_.cluster.placement;
      auto targets = placement_targets(cached, mode, layout, key, stripe, replicas);
      if (epoch != map_.epoch() &&
          placement_targets(map_, mode, layout, key, stripe, replicas) != targets) {
        // The authoritative placement moved since the client's map: the
        // addressed OST rejects the epoch instead of serving (Ceph's
        // stale-OSDMap discipline). Bounce the whole chunk.
        const OstIndex bounce = !targets.empty() ? targets.front() : chunk.ost;
        plan_.push_back(Shipment{bounce, flo, chunk.length, flo, fhi, /*stale=*/true});
        continue;
      }
      if (targets.empty()) {
        fanouts_[f].fail(IoError::kOstDown);  // no placeable OST in the cached map
        continue;
      }
      if (is_write) {
        // Fan out to every placement target the cached map lists. A target
        // that is really dead but not yet detected rejects at the door and
        // fails the op — the measurable detection window. (No omniscient
        // mark_missed here: migration planning at the next epoch settles
        // the debts detection reveals.)
        for (const OstIndex target : targets) {
          plan_.push_back(Shipment{target, flo, chunk.length, flo, fhi});
        }
        continue;
      }
      // Read: walk the fallback chain (this epoch's placement, then older
      // epochs') and serve from the first candidate the client believes
      // serving that holds the acknowledged data.
      constexpr OstIndex kNoOst = UINT32_MAX;
      OstIndex serve = kNoOst;
      OstIndex first_serving = kNoOst;
      for (const OstIndex candidate : read_candidates(key, layout, stripe, epoch)) {
        if (!cached.serving(candidate)) continue;
        if (first_serving == kNoOst) first_serving = candidate;
        if (!tracked || ledger_.read_ok(file, candidate, flo, fhi)) {
          serve = candidate;
          break;
        }
      }
      if (serve != kNoOst) {
        if (tracked && serve != targets.front()) {
          note(ResilienceEventKind::kDegradedRead, serve, chunk.length);
        }
        plan_.push_back(Shipment{serve, flo, chunk.length, flo, fhi});
      } else if (first_serving != kNoOst) {
        // Somebody serving, nobody holding: the read completes and the
        // content check reports kDataLost.
        plan_.push_back(Shipment{first_serving, flo, chunk.length, flo, fhi});
      } else {
        // Nobody the client believes serving: address the primary and let
        // reality answer (a door rejection is retryable).
        plan_.push_back(Shipment{targets.front(), flo, chunk.length, flo, fhi});
      }
      continue;
    }
    if (replicas <= 1) {
      // Unreplicated (or untracked) path: degraded-mode striping may route
      // around OSTs known down at dispatch — which ships acknowledged data
      // outside the read set, the classic R=1 durability hole that F3 and
      // kDataLost make visible under tracking.
      const OstIndex target = route_chunk(chunk.ost, dispatched);
      plan_.push_back(Shipment{target, chunk.object_offset, chunk.length, flo, fhi});
      continue;
    }
    if (is_write) {
      // Fan out to every live replica; a down replica misses the write and
      // accrues rebuild debt. The chunk is durable while >= 1 replica lives.
      std::size_t live = 0;
      for (std::uint32_t r = 0; r < replicas; ++r) {
        const OstIndex target = replica_ost(chunk.ost, r, config_.osts);
        if (ost_down(target, dispatched)) {
          ledger_.mark_missed(target, file, flo, fhi);
        } else {
          plan_.push_back(Shipment{target, chunk.object_offset, chunk.length, flo, fhi});
          ++live;
        }
      }
      if (live == 0) fanouts_[f].fail(IoError::kOstDown);  // whole replica set down
      continue;
    }
    // Replicated read: serve from the first replica that is up AND holds
    // the acknowledged data; primary preferred, fallback = degraded read.
    constexpr OstIndex kNone = UINT32_MAX;
    OstIndex serve = kNone;
    OstIndex first_up = kNone;
    std::uint32_t serve_r = 0;
    for (std::uint32_t r = 0; r < replicas; ++r) {
      const OstIndex candidate = replica_ost(chunk.ost, r, config_.osts);
      if (ost_down(candidate, dispatched)) continue;
      if (first_up == kNone) first_up = candidate;
      if (ledger_.read_ok(file, candidate, flo, fhi)) {
        serve = candidate;
        serve_r = r;
        break;
      }
    }
    if (serve != kNone) {
      if (serve_r != 0) note(ResilienceEventKind::kDegradedRead, serve, chunk.length);
      plan_.push_back(Shipment{serve, chunk.object_offset, chunk.length, flo, fhi});
    } else if (first_up != kNone) {
      // Some replica is up but none holds current data: the device read
      // completes, the content check at completion reports kDataLost.
      plan_.push_back(Shipment{first_up, chunk.object_offset, chunk.length, flo, fhi});
    } else {
      // Whole replica set down: let the primary reject it (retryable).
      plan_.push_back(Shipment{chunk.ost, chunk.object_offset, chunk.length, flo, fhi});
    }
  }

  if (plan_.empty()) {
    engine_.schedule_after(SimTime::zero(), [this, f] { fanout_deliver(f); });
    return;
  }
  fanouts_[f].remaining = plan_.size();

  // A shipment in flight: the planned chunk plus its call's context.
  const auto launch = [&](const Shipment& planned) {
    const sim::Handle s = shipments_.acquire();
    Shipment& ship = shipments_[s];
    ship = planned;
    ship.fan = f;
    ship.ion = ion;
    ship.is_write = is_write;
    ship.tracked = tracked;
    ship.file = file;
    ship.wtoken = wtoken;
    ship.ok = false;
    ship.content_ok = true;
    ship.fail_error = IoError::kNone;
    return s;
  };
  for (const Shipment& planned : plan_) {
    const net::EndpointId ost_ep = storage_ep_of_ost(planned.target);
    if (planned.stale) {
      // Epoch check happens at the door, before any device work: request
      // header out, kStaleMap error header straight back. (No breaker gate:
      // a stale bounce is protocol, not server health.)
      const sim::Handle s = launch(planned);
      shipments_[s].fail_error = IoError::kStaleMap;
      storage_fabric_->send(ion, ost_ep, kHeader, [this, s] {
        const Shipment& ship = shipments_[s];
        storage_fabric_->send(storage_ep_of_ost(ship.target), ship.ion, kHeader,
                              [this, s] { shipment_done(s); });
      });
      continue;
    }
    // Circuit breaker gate: chunks addressed to a server whose breaker is
    // open fast-fail on the client without touching the fabric or the OST.
    if (config_.retry.breaker) {
      const CircuitBreaker::Gate gate = breakers_[planned.target].admit(engine_.now());
      if (!gate.allowed) {
        ++res_stats_.breaker_fast_fails;
        engine_.schedule_after(SimTime::zero(), [this, f] {
          fanout_finish_one(f, false, IoError::kCircuitOpen);
        });
        continue;
      }
      if (gate.probe) note(ResilienceEventKind::kBreakerProbe, planned.target);
    }
    // A write ships its data to the OST and a small ack (or error) returns;
    // a read sends a small request and the data (or a short error) returns.
    const sim::Handle s = launch(planned);
    storage_fabric_->send(ion, ost_ep, is_write ? planned.length : kHeader,
                          [this, s] { shipment_at_ost(s); });
  }
}

void PfsModel::shipment_at_ost(sim::Handle s) {
  const Shipment& ship = shipments_[s];
  osts_[ship.target]->submit(ship.object_offset, ship.length, ship.is_write,
                             [this, s](OstCompletion c) { shipment_served(s, c); });
}

void PfsModel::shipment_served(sim::Handle s, OstCompletion c) {
  breaker_note(shipments_[s].target, c.ok());
  Shipment& ship = shipments_[s];
  fanouts_[ship.fan].hint(c.retry_after);
  ship.ok = c.ok();
  ship.fail_error = c.overloaded() ? IoError::kOverloaded : IoError::kOstDown;
  Bytes payload = kHeader;
  if (ship.is_write) {
    if (ship.ok && ship.tracked) {
      ledger_.apply(ship.file, ship.target, ship.file_lo, ship.file_hi, ship.wtoken);
    }
  } else {
    // Re-check content at completion: a resync finishing between dispatch
    // and completion legitimately saves the read.
    ship.content_ok = !ship.ok || !ship.tracked ||
                      ledger_.read_ok(ship.file, ship.target, ship.file_lo, ship.file_hi);
    if (ship.ok) payload = ship.length;
  }
  storage_fabric_->send(storage_ep_of_ost(ship.target), ship.ion, payload,
                        [this, s] { shipment_done(s); });
}

void PfsModel::shipment_done(sim::Handle s) {
  const Shipment& ship = shipments_[s];
  const sim::Handle f = ship.fan;
  const bool ok = ship.ok && ship.content_ok;
  const IoError error = !ship.ok          ? ship.fail_error
                        : ship.content_ok ? IoError::kNone
                                          : IoError::kDataLost;
  shipments_.release(s);
  fanout_finish_one(f, ok, error);
}

void PfsModel::fanout_finish_one(sim::Handle f, bool ok, IoError error) {
  BackendFanout& fan = fanouts_[f];
  if (!ok) fan.fail(error);
  if (--fan.remaining == 0) fanout_deliver(f);
}

void PfsModel::fanout_deliver(sim::Handle f) {
  BackendFanout& fan = fanouts_[f];
  const bool ok = fan.all_ok;
  const IoError error = ok ? IoError::kNone : fan.error;
  const SimTime retry_after = fan.retry_after;
  const std::function<void(bool, IoError, SimTime)> done = std::move(fan.done);
  fan.done = nullptr;
  fanouts_.release(f);
  if (done) done(ok, error, retry_after);
}

void PfsModel::note(ResilienceEventKind kind, std::uint32_t ost, Bytes bytes) {
  ++(res_stats_.*kResilienceKinds[static_cast<std::size_t>(kind)].row);
  const SimTime now = engine_.now();
  engine_.emit({.layer = obs::Layer::kClient, .kind = static_cast<std::uint8_t>(kind),
                .component = ost, .start = now, .end = now, .bytes = bytes});
}

void PfsModel::breaker_note(OstIndex ost, bool ok) {
  if (!config_.retry.breaker) return;
  CircuitBreaker& breaker = breakers_[ost];
  if (ok) {
    if (breaker.record_success()) note(ResilienceEventKind::kBreakerClose, ost);
    return;
  }
  if (breaker.record_failure(engine_.now(), breaker_rng_)) {
    note(ResilienceEventKind::kBreakerOpen, ost);
  }
}

void PfsModel::unref_op(sim::Handle op) {
  if (--ops_[op].refs == 0) ops_.release(op);
}

void PfsModel::settle(sim::Handle op, bool ok, IoError error) {
  IoOp& o = ops_[op];
  IoResult result;
  result.ok = ok;
  result.error = ok ? IoError::kNone : error;
  result.attempts = o.attempt;
  result.issued = o.issued;
  result.completed = engine_.now();
  result.size = o.size;
  if (ok && o.is_write) {
    mds_->grow_file(file_info(o.file_token).file, Bytes{o.offset} + o.size, engine_.now());
    if (o.token != 0) {
      // The ack IS the durability promise: from here on F3 holds the model
      // to keeping this payload readable from at least one replica.
      ledger_.ack(o.file_token, o.offset, o.offset + o.size.count(), o.token);
    }
  }
  if (!ok) {
    ++res_stats_.failed_ops;
    if (error == IoError::kDataLost) ++res_stats_.data_lost_ops;
  }
  const std::function<void(IoResult)> done = std::move(o.done);
  o.done = nullptr;
  unref_op(op);
  if (done) done(result);
}

void PfsModel::attempt_finished(sim::Handle op, bool ok, IoError error) {
  const RetryPolicy& retry = config_.retry;
  if (ok) {
    if (retry.adaptive_timeout) {
      latency_.observe(engine_.now() - ops_[op].attempt_started);
    }
    if (retry.retry_budget) {
      budget_.deposit();
      ++res_stats_.budget_deposits;
    }
    settle(op, true, IoError::kNone);
    return;
  }
  if (error == IoError::kOverloaded) ++res_stats_.overload_rejections;
  if (error == IoError::kDataLost) {
    // Lost data cannot be retried back into existence: settle immediately.
    settle(op, false, error);
    return;
  }
  const std::uint32_t attempt = ops_[op].attempt;
  const SimTime deadline = ops_[op].deadline;
  // End-to-end deadline: once the op's budget is spent, retrying is work
  // nobody is waiting for — settle now whatever the per-attempt error was.
  if (deadline > SimTime::zero() && engine_.now() >= deadline) {
    note(ResilienceEventKind::kDeadlineGiveUp);
    settle(op, false, IoError::kDeadlineExceeded);
    return;
  }
  if (error == IoError::kStaleMap) {
    // A stale map is not weather — backing off would just retry through the
    // same outdated epoch. Refresh the client's map (a real round trip to
    // the monitor) and retry immediately once the new epoch lands.
    if (attempt < retry.max_attempts) {
      note(ResilienceEventKind::kStaleMapRetry);
      refresh_map(op);
      return;
    }
    if (retry.retries_enabled()) note(ResilienceEventKind::kGiveUp);
    settle(op, false, error);
    return;
  }
  if (attempt < retry.max_attempts) {
    // Pace to the server's retry-after hint when it exceeds the backoff
    // (the jitter draw happens regardless, keeping the stream aligned).
    SimTime delay = backoff_delay(retry, attempt, retry_rng_);
    if (ops_[op].retry_after > delay) delay = ops_[op].retry_after;
    // A retry that cannot even start before the deadline gives up now.
    if (deadline > SimTime::zero() && engine_.now() + delay >= deadline) {
      note(ResilienceEventKind::kDeadlineGiveUp);
      settle(op, false, IoError::kDeadlineExceeded);
      return;
    }
    // Token-bucket retry budget: a denied retry settles with the original
    // error — under overload this is what caps retry amplification (F5b).
    if (retry.retry_budget) {
      if (!budget_.try_spend()) {
        note(ResilienceEventKind::kBudgetExhausted);
        settle(op, false, error);
        return;
      }
      ++res_stats_.budget_spent;
    }
    note(ResilienceEventKind::kRetry);
    engine_.schedule_after(delay, [this, op] { start_attempt(op); });
    return;
  }
  if (retry.retries_enabled()) note(ResilienceEventKind::kGiveUp);
  settle(op, false, error);
}

void PfsModel::start_attempt(sim::Handle op) {
  IoOp& o = ops_[op];
  // A retry can land here past the deadline without crossing the backoff
  // path's check (stale-map refresh round trips take real time).
  if (o.deadline > SimTime::zero() && o.attempt > 0 && engine_.now() >= o.deadline) {
    note(ResilienceEventKind::kDeadlineGiveUp);
    settle(op, false, IoError::kDeadlineExceeded);
    return;
  }
  ++o.attempt;
  ++res_stats_.attempts;
  o.attempt_started = engine_.now();
  o.retry_after = SimTime::zero();
  // Each attempt addresses through the epoch the client holds *now* — a
  // refresh between attempts is what makes stale-map retries converge.
  if (cluster_enabled()) o.map_epoch = client_epoch_[o.client];
  ++o.refs;
  const sim::Handle a = attempts_.acquire();
  attempts_[a] = Attempt{op};
  // Per-attempt timeout: the adaptive estimator's RTO when enabled, else the
  // fixed op_timeout; either way capped to what remains of the deadline.
  SimTime timeout =
      config_.retry.adaptive_timeout ? latency_.timeout() : config_.retry.op_timeout;
  if (o.deadline > SimTime::zero()) {
    const SimTime remaining = o.deadline - engine_.now();
    if (timeout <= SimTime::zero() || timeout > remaining) timeout = remaining;
  }
  if (timeout > SimTime::zero()) {
    attempts_[a].timeout_event =
        engine_.schedule_after(timeout, [this, a] { attempt_timeout(a); });
  }
  // A write's data (or a read's small request) travels client -> ION over
  // the compute fabric.
  compute_fabric_->send(o.client, compute_ep_of_ion(ion_of(o.client)),
                        o.is_write ? o.size : kHeader, [this, a] { attempt_at_ion(a); });
}

void PfsModel::attempt_timeout(sim::Handle a) {
  Attempt& at = attempts_[a];
  if (at.settled) return;
  // Abandon the attempt: whatever it still has in flight will drain
  // through the model as counted orphans (invariant F2).
  at.settled = true;
  ++abandoned_in_flight_;
  const sim::Handle op = at.op;
  note(ResilienceEventKind::kTimeout);
  attempt_finished(op, false, IoError::kTimeout);
}

void PfsModel::attempt_at_ion(sim::Handle a) {
  const IoOp& o = ops_[attempts_[a].op];
  const std::uint32_t ion = ion_of(o.client);
  // Copies: a span sink may start other ops.
  const StripeLayout layout = o.layout;
  const bool is_write = o.is_write;
  const std::uint64_t file_token = o.file_token;
  const std::uint64_t file = tracking() ? file_token : 0;
  const std::uint64_t offset = o.offset;
  const Bytes size = o.size;
  const WriteToken token = o.token;
  const std::uint64_t key = file_info(file_token).key;
  const std::uint64_t epoch = o.map_epoch;
  const auto backend_done = [this, a](bool ok, IoError error, SimTime retry_after) {
    attempt_backend_done(a, ok, error, retry_after);
  };
  const auto staged = [this, a] {
    attempt_backend_done(a, true, IoError::kNone, SimTime::zero());
  };
  BurstBuffer* bb = buffer_for_ion(ion);
  const bool bb_stalled = bb != nullptr && timeline_.down(bb_id_for_ion(ion), engine_.now());
  if (is_write) {
    if (bb != nullptr && !bb_stalled && bb->can_absorb(size)) {
      bb->write(file_token, offset, size, staged);
      return;  // absorbed; drain happens in the background
    }
    // No buffer (or full, or stalled): write through to the OSTs.
    if (bb != nullptr) bb->note_bypass(size);
    backend_io(ion, file, layout, offset, size, true, token, key, epoch, backend_done);
    return;
  }
  if (bb != nullptr && !bb_stalled && bb->resident(file_token, offset, size)) {
    bb->read(file_token, offset, size, staged);
    return;  // served from the staging tier
  }
  if (bb != nullptr) bb->note_miss(size);
  backend_io(ion, file, layout, offset, size, false, 0, key, epoch, backend_done);
}

void PfsModel::attempt_backend_done(sim::Handle a, bool ok, IoError error,
                                    SimTime retry_after) {
  Attempt& at = attempts_[a];
  at.ok = ok;
  at.error = ok ? IoError::kNone : error;
  // The server pacing hint for the retry path (written by an orphan too).
  IoOp& o = ops_[at.op];
  o.retry_after = retry_after;
  // Ack (or error) header back to the client; a successful read's data
  // returns instead.
  const Bytes payload = ok && !o.is_write ? o.size : kHeader;
  compute_fabric_->send(compute_ep_of_ion(ion_of(o.client)), o.client, payload,
                        [this, a] { attempt_done(a); });
}

void PfsModel::attempt_done(sim::Handle a) {
  // Exactly-once completion funnel for this attempt. A completion arriving
  // after the timeout settled the attempt is an orphan draining out.
  const Attempt at = attempts_[a];
  attempts_.release(a);
  if (at.settled) {
    sim::check::that(abandoned_in_flight_ > 0, "fault.abandoned-op-leak",
                     "orphan completion without a matching abandonment");
    --abandoned_in_flight_;
    unref_op(at.op);
    return;
  }
  if (at.timeout_event != 0) engine_.cancel(at.timeout_event);
  unref_op(at.op);  // the op's own reference keeps it live until it settles
  attempt_finished(at.op, at.ok, at.error);
}

void PfsModel::io(ClientId client, FileId file, const StripeLayout& layout,
                  std::uint64_t offset, Bytes size, bool is_write,
                  std::function<void(IoResult)> on_done) {
  if (client >= config_.clients) throw std::out_of_range("PfsModel::io: bad client");
  if (!tracking() && layout.replicas > 1) {
    throw std::invalid_argument(
        "PfsModel::io: replicated layouts require durability.track_contents");
  }
  const SimTime issued = engine_.now();
  const sim::Handle op = ops_.acquire();
  IoOp& o = ops_[op];
  o = IoOp{};
  o.issued = issued;
  o.size = size;
  o.refs = 1;
  o.done = std::move(on_done);

  // Data ops against a path that was never created (or names a directory)
  // fail fast with a distinct error: there is no layout to ship chunks with.
  // No retries — the namespace will not change by waiting.
  const Inode* inode = mds_->find_inode(file);
  if (inode == nullptr || inode->is_dir) {
    engine_.schedule_after(SimTime::zero(), [this, op] {
      ++res_stats_.failed_ops;
      IoOp& failed = ops_[op];
      const IoResult result{false, IoError::kNoEntry, 1, failed.issued, engine_.now(),
                            failed.size};
      const std::function<void(IoResult)> done = std::move(failed.done);
      failed.done = nullptr;
      unref_op(op);
      if (done) done(result);
    });
    return;
  }

  // A token names exactly one file: its placement key is hashed on first
  // sight, and later calls refresh only the layout.
  if (file >= tokens_.size()) tokens_.resize(file + std::size_t{1}, 0);
  std::uint64_t& token = tokens_[file];
  if (token == 0) {
    files_.push_back(FileInfo{file, {}, file_placement_key(mds_->path(file))});
    token = files_.size();
  }
  files_[token - 1].layout = layout;

  o.client = client;
  o.file_token = token;
  o.layout = layout;
  o.offset = offset;
  o.is_write = is_write;
  if (config_.retry.op_deadline > SimTime::zero()) {
    o.deadline = issued + config_.retry.op_deadline;
  }
  // One token per logical op: every attempt and chunk of a tracked write
  // carries the same payload identity.
  if (tracking() && is_write) o.token = ledger_.next_token();
  start_attempt(op);
}

void PfsModel::start_rebuild(OstIndex ost, bool migration) {
  if (!tracking()) return;
  auto& slot = rebuild_[ost];
  if (slot == nullptr) slot = std::make_unique<RebuildState>();
  RebuildState& rb = *slot;
  if (rb.active) return;
  rb.migration = migration;
  rb.queue.clear();
  rb.next = 0;
  rb.total = Bytes::zero();
  rb.done = Bytes::zero();
  // Split the owed ranges at chunk boundaries (each piece has one home OST
  // and one object offset) and at the resync copy granularity.
  const std::uint64_t piece_max =
      std::max<std::uint64_t>(1, config_.durability.rebuild_chunk.count());
  for (const auto& range : ledger_.dirty_snapshot(ost)) {
    const auto chunks = decompose(file_info(range.file).layout, config_.osts, range.lo,
                                  Bytes{range.hi - range.lo});
    for (const auto& chunk : chunks) {
      const std::uint64_t chunk_hi = chunk.file_offset + chunk.length.count();
      for (std::uint64_t lo = chunk.file_offset; lo < chunk_hi;) {
        const std::uint64_t hi = std::min(chunk_hi, lo + piece_max);
        rb.queue.push_back(DirtyRange{range.file, lo, hi});
        rb.total = rb.total + Bytes{hi - lo};
        lo = hi;
      }
    }
  }
  if (rb.queue.empty()) return;  // recovered owing nothing: no rebuild
  rb.active = true;
  rb.started = engine_.now();
  note(ResilienceEventKind::kRebuildStart, ost, rb.total);
  run_rebuild_piece(ost);
}

void PfsModel::run_rebuild_piece(OstIndex ost) {
  RebuildState& rb = *rebuild_.at(ost);
  if (!rb.active) return;
  if (rb.next >= rb.queue.size()) {
    finish_rebuild(ost);
    return;
  }
  const DirtyRange piece = rb.queue[rb.next++];
  const SimTime t0 = engine_.now();
  // A piece with no usable source right now stays owed (still dirty in the
  // ledger); a later recovery of this OST retries it.
  const auto skip = [this, ost] {
    engine_.schedule_after(SimTime::zero(), [this, ost] { run_rebuild_piece(ost); });
  };
  const FileInfo& info = file_info(piece.file);
  const StripeLayout& layout = info.layout;
  const auto chunks =
      decompose(layout, config_.osts, piece.lo, Bytes{piece.hi - piece.lo});
  if (chunks.size() != 1) {  // defensive: pieces never cross chunk boundaries
    skip();
    return;
  }
  const StripeChunk chunk = chunks.front();
  const std::uint32_t replicas = std::max<std::uint32_t>(1, layout.replicas);
  constexpr OstIndex kNoOst = UINT32_MAX;
  OstIndex src = kNoOst;
  if (cluster_enabled()) {
    // Source selection sees only detected state (the monitor's map), never
    // the timeline: a believed-serving-but-dead source rejects the read at
    // the door and the piece stays owed for a later pass.
    const std::uint64_t stripe = piece.lo / layout.stripe_size.count();
    for (const OstIndex candidate :
         read_candidates(info.key, layout, stripe, map_.epoch())) {
      if (candidate == ost || !map_.serving(candidate)) continue;
      if (ledger_.read_ok(piece.file, candidate, piece.lo, piece.hi)) {
        src = candidate;
        break;
      }
    }
  } else {
    for (std::uint32_t r = 0; r < replicas; ++r) {
      const OstIndex candidate = replica_ost(chunk.ost, r, config_.osts);
      if (candidate == ost || ost_down(candidate, t0)) continue;
      if (ledger_.read_ok(piece.file, candidate, piece.lo, piece.hi)) {
        src = candidate;
        break;
      }
    }
  }
  if (src == kNoOst) {
    skip();
    return;
  }
  const Bytes len{piece.hi - piece.lo};
  // Resync is real DES traffic: a device read on the source replica, a hop
  // across the storage fabric, a device write on the rebuilding OST — so it
  // contends with foreground I/O exactly like production resync streams.
  // Cluster mode addresses objects by file offset (placement-independent);
  // legacy mode keeps the round-robin lane's object offset.
  const std::uint64_t obj = cluster_enabled() ? piece.lo : chunk.object_offset;
  osts_[src]->submit(obj, len, false, [this, ost, src, piece, obj, len,
                                       t0](OstCompletion read_c) mutable {
    if (!read_c.ok()) {
      engine_.schedule_after(SimTime::zero(), [this, ost] { run_rebuild_piece(ost); });
      return;
    }
    storage_fabric_->send(
        storage_ep_of_ost(src), storage_ep_of_ost(ost), len,
        [this, ost, src, piece, obj, len, t0]() mutable {
          osts_[ost]->submit(obj, len, true, [this, ost, src, piece, len,
                                              t0](OstCompletion write_c) mutable {
            RebuildState& state = *rebuild_.at(ost);
            if (!write_c.ok()) {
              // The rebuilding OST crashed again mid-resync: park the pass.
              // Its next recovery event restarts it from the (still-dirty)
              // ledger; a transient rejection with the OST up retries now.
              state.active = false;
              const bool mig = state.migration;
              if (!ost_down(ost, engine_.now())) {
                engine_.schedule_after(SimTime::zero(),
                                       [this, ost, mig] { start_rebuild(ost, mig); });
              }
              return;
            }
            ledger_.copy(piece.file, src, ost, piece.lo, piece.hi);
            state.done = state.done + len;
            res_stats_.rebuilt_bytes = res_stats_.rebuilt_bytes + len;
            // Pace the next piece against the rebuild bandwidth cap, with a
            // seeded jitter so parallel resyncs do not lockstep. Migration
            // passes draw from the drain stream, crash resyncs from the
            // rebuild stream — the two never perturb each other's draws.
            double pace_sec = config_.durability.rebuild_bandwidth.transfer_time(len).sec();
            const double jitter = config_.durability.rebuild_jitter_fraction;
            Rng& pace_rng = state.migration ? drain_rng_ : rebuild_rng_;
            if (jitter > 0.0) pace_sec *= 1.0 + pace_rng.uniform(-jitter, jitter);
            const SimTime next_at =
                std::max(engine_.now(), t0 + SimTime::from_sec_ceil(pace_sec));
            engine_.schedule_at(next_at, [this, ost] { run_rebuild_piece(ost); });
          });
        });
  });
}

void PfsModel::finish_rebuild(OstIndex ost) {
  RebuildState& rb = *rebuild_.at(ost);
  rb.active = false;
  note(ResilienceEventKind::kRebuildDone, ost, rb.done);
}

PfsModel::DurabilityReport PfsModel::durability_report() const {
  DurabilityReport report;
  if (!tracking()) return report;
  for (const std::uint64_t file : ledger_.acked_files()) {
    const FileInfo& info = file_info(file);
    const StripeLayout& layout = info.layout;
    const std::uint32_t replicas = std::max<std::uint32_t>(1, layout.replicas);
    for (const auto& seg : ledger_.acked_segments(file)) {
      report.acked = report.acked + Bytes{seg.hi - seg.lo};
      // Audit per chunk against the chunk's read set: the replicas a read
      // would consult. Data that failover misdirected outside the read set
      // (the R=1 hole) is audited as lost — reads cannot reach it. In
      // cluster mode the read set is the placement-aware fallback chain
      // restricted to OSTs the monitor believes serving, so the audit is F4:
      // "readable through the read path after any membership sequence".
      const auto chunks = decompose(layout, config_.osts, seg.lo, Bytes{seg.hi - seg.lo});
      for (const auto& chunk : chunks) {
        const std::uint64_t chunk_lo = chunk.file_offset;
        const std::uint64_t chunk_hi = chunk.file_offset + chunk.length.count();
        bool held = false;
        if (cluster_enabled()) {
          const std::uint64_t stripe = chunk_lo / layout.stripe_size.count();
          for (const OstIndex candidate :
               read_candidates(info.key, layout, stripe, map_.epoch())) {
            if (map_.serving(candidate) &&
                ledger_.read_ok(file, candidate, chunk_lo, chunk_hi)) {
              held = true;
              break;
            }
          }
        } else {
          for (std::uint32_t r = 0; r < replicas && !held; ++r) {
            held = ledger_.read_ok(file, replica_ost(chunk.ost, r, config_.osts), chunk_lo,
                                   chunk_hi);
          }
        }
        if (!held) {
          report.lost = report.lost + Bytes{chunk_hi - chunk_lo};
          ++report.lost_ranges;
        }
      }
    }
  }
  return report;
}

PfsModel::RebuildStatus PfsModel::rebuild_status(OstIndex ost) const {
  RebuildStatus status;
  const auto it = rebuild_.find(ost);
  if (it == rebuild_.end() || it->second == nullptr) return status;
  const RebuildState& rb = *it->second;
  status.active = rb.active;
  status.total = rb.total;
  status.done = rb.done;
  status.started = rb.started;
  if (rb.active && rb.total.count() > rb.done.count()) {
    status.eta = config_.durability.rebuild_bandwidth.transfer_time(
        Bytes{rb.total.count() - rb.done.count()});
  }
  return status;
}

void PfsModel::assert_quiescent() const {
  sim::check::abandoned_ops_drained(abandoned_in_flight_);
  // Every stage released its pooled record: nothing is left in flight.
  sim::check::records_released(compute_fabric_->messages_in_flight(), "compute fabric");
  sim::check::records_released(storage_fabric_->messages_in_flight(), "storage fabric");
  sim::check::records_released(mds_->requests_in_flight(), "mds");
  for (const auto& ost : osts_) sim::check::records_released(ost->ops_in_flight(), "ost");
  sim::check::records_released(ops_.live(), "pfs io ops");
  sim::check::records_released(attempts_.live(), "pfs attempts");
  sim::check::records_released(fanouts_.live(), "pfs fan-outs");
  sim::check::records_released(shipments_.live(), "pfs shipments");
  sim::check::records_released(metas_.live(), "pfs meta calls");
  if (tracking()) {
    sim::check::acked_writes_durable(durability_report().lost.count());
  }
  // F5a: every submission resolved exactly one way. Audited unconditionally
  // — the identity must hold with admission control off too.
  for (const auto& ost : osts_) {
    const OstStats& s = ost->stats();
    sim::check::admission_accounting_exact(
        s.submitted_ops,
        s.completed_ops + s.rejected_ops + s.overload_rejected_ops + s.shed_ops +
            s.interrupted_ops,
        "ost");
  }
  const MdsStats& m = mds_->stats();
  sim::check::admission_accounting_exact(m.requests, m.ops_total, "mds");
  // F5b: with the token bucket on, retries spent can never exceed the
  // initial burst plus ratio * deposits — amplification is bounded.
  if (config_.retry.retry_budget) {
    sim::check::retry_amplification_bounded(
        res_stats_.budget_spent,
        config_.retry.budget_cap +
            config_.retry.budget_ratio * static_cast<double>(res_stats_.budget_deposits));
  }
}

PfsModel::ServerOverloadTotals PfsModel::server_overload_totals() const {
  ServerOverloadTotals totals;
  for (const auto& ost : osts_) {
    totals.rejected += ost->stats().overload_rejected_ops;
    totals.shed += ost->stats().shed_ops;
  }
  totals.rejected += mds_->stats().overload_rejected;
  totals.shed += mds_->stats().shed_ops;
  return totals;
}

bool PfsModel::buffers_quiescent() const {
  for (const auto& buffer : buffers_) {
    if (!buffer->quiescent()) return false;
  }
  return true;
}

}  // namespace pio::pfs
