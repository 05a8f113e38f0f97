// PIOEval storage substrate: the end-to-end parallel file system model.
//
// This facade assembles the Fig. 1 system: compute nodes (clients) on a fast
// compute fabric, I/O nodes (optionally with a burst-buffer SSD tier), a
// slower storage fabric, and a storage cluster of one metadata server plus N
// object storage targets with striped file layouts. Every client operation
// traverses the full path, so the delivered performance exhibits the
// contention, queueing, and tiering effects the paper's evaluation
// techniques are built to observe.
//
// With a fault plan/injector configured the facade also owns the run's
// fault::Timeline and the client-side resilience layer: failed attempts are
// retried with capped exponential backoff, stuck attempts time out and are
// abandoned (their in-flight events drain as counted orphans), and degraded-
// mode striping can route chunks around down OSTs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "net/fabric.hpp"
#include "pfs/burst_buffer.hpp"
#include "pfs/cluster_map.hpp"
#include "pfs/disk.hpp"
#include "pfs/durability.hpp"
#include "pfs/mds.hpp"
#include "pfs/ost.hpp"
#include "pfs/resilience.hpp"
#include "pfs/stripe.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/records.hpp"

namespace pio::pfs {

using ClientId = std::uint32_t;

enum class DiskKind : std::uint8_t { kHdd, kSsd };

/// Burst-buffer deployment (experiment C9).
enum class BbPlacement : std::uint8_t {
  kNone,       ///< no burst buffer; clients write through to the PFS
  kPerIoNode,  ///< one buffer per I/O node (node-local style)
  kShared,     ///< a single buffer shared by all I/O nodes
};

struct PfsConfig {
  std::uint32_t clients = 8;
  std::uint32_t io_nodes = 2;
  std::uint32_t osts = 8;
  net::FabricConfig compute_fabric{
      .endpoint_bandwidth = Bandwidth::from_gib_per_sec(10.0),
      .endpoint_latency = SimTime::from_us(1.0),
      .core_links = 16.0,
      .core_latency = SimTime::from_us(1.0),
      .name = "compute",
  };
  net::FabricConfig storage_fabric{
      .endpoint_bandwidth = Bandwidth::from_gib_per_sec(1.25),  // ~10GbE
      .endpoint_latency = SimTime::from_us(10.0),
      .core_links = 8.0,
      .core_latency = SimTime::from_us(10.0),
      .name = "storage",
  };
  MdsConfig mds{};
  DiskKind disk_kind = DiskKind::kHdd;
  HddConfig hdd{};
  SsdConfig ssd{};
  BbPlacement bb_placement = BbPlacement::kNone;
  BurstBufferConfig bb{};
  /// Client-side retry/degraded-mode policy (default: fail-fast).
  RetryPolicy retry{};
  /// Server-side admission control, applied to the MDS and every OST
  /// (DESIGN.md §14). Off by default (kUnbounded): no door checks, no
  /// sheds, pre-overload queueing semantics preserved bit-for-bit.
  AdmissionConfig admission{};
  /// Durability layer: write-token content tracking, replica fan-out for
  /// layouts with replicas > 1, degraded reads, online OST rebuild, and
  /// invariant F3. Off by default (PR2 fault semantics preserved exactly).
  /// Incompatible with burst buffers in this release (a write-back tier
  /// that drops dirty blocks on a failed drain cannot honour F3).
  DurabilityConfig durability{};
  /// Epoch-versioned cluster membership: heartbeat failure detection, live
  /// OST join/drain/decommission, stale-map client protocol, and placement
  /// modes (DESIGN.md §13). Off by default (static omniscient semantics
  /// preserved exactly). Incompatible with burst buffers in this release
  /// (the staging tier would bypass the stale-map addressing protocol).
  ClusterMapConfig cluster{};
  /// Scripted fault events, applied verbatim.
  fault::FaultPlan faults{};
  /// Optional stochastic injector; its events (materialized from the engine
  /// seed at construction) merge with the scripted plan. `osts` is filled in
  /// from this config automatically.
  std::optional<fault::InjectorConfig> fault_injector;
};

/// Result of a data-path operation.
struct IoResult {
  bool ok = false;
  IoError error = IoError::kNone;  ///< why ok == false (kNone on success)
  std::uint32_t attempts = 1;      ///< attempts consumed (1 = first try)
  SimTime issued = SimTime::zero();
  SimTime completed = SimTime::zero();
  Bytes size = Bytes::zero();

  /// Client-observed latency. Well-defined for failed ops too: `completed`
  /// is the time the failure was *reported* to the client (>= issued), so
  /// this never underflows; sim::check guards the invariant.
  [[nodiscard]] SimTime latency() const {
    sim::check::that(completed >= issued, "pfs.ioresult-latency",
                     "completed precedes issued");
    return completed - issued;
  }
};

/// The assembled system model.
class PfsModel {
 public:
  PfsModel(sim::Engine& engine, const PfsConfig& config);
  ~PfsModel();  // out of line: RebuildState is incomplete here

  PfsModel(const PfsModel&) = delete;
  PfsModel& operator=(const PfsModel&) = delete;

  // -- metadata path -------------------------------------------------------

  /// Issue a metadata op from `client` on `file` (an id from
  /// `mds().intern`); traverses compute fabric -> I/O node -> storage
  /// fabric -> MDS and back.
  void meta(ClientId client, MetaOp op, FileId file, std::function<void(MetaResult)> on_done,
            std::optional<StripeLayout> layout = std::nullopt);

  // -- data path -----------------------------------------------------------

  /// Read or write `size` bytes at `offset` of `file` using `layout` (as
  /// returned by a create/open). A file that was never created (or is a
  /// directory) fails immediately with IoError::kNoEntry. Under a fault
  /// timeline the op may fail with kOstDown/kMdsDown/kTimeout; the
  /// configured RetryPolicy governs retries, timeouts and failover.
  void io(ClientId client, FileId file, const StripeLayout& layout, std::uint64_t offset,
          Bytes size, bool is_write, std::function<void(IoResult)> on_done);

  // -- inspection ----------------------------------------------------------

  [[nodiscard]] MetadataServer& mds() { return *mds_; }
  [[nodiscard]] const MetadataServer& mds() const { return *mds_; }
  [[nodiscard]] OstServer& ost(std::uint32_t i) { return *osts_.at(i); }
  [[nodiscard]] std::uint32_t ost_count() const { return static_cast<std::uint32_t>(osts_.size()); }
  [[nodiscard]] net::Fabric& compute_fabric() { return *compute_fabric_; }
  [[nodiscard]] net::Fabric& storage_fabric() { return *storage_fabric_; }
  [[nodiscard]] const PfsConfig& config() const { return config_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  /// Burst buffers in deployment order (empty when placement is kNone).
  [[nodiscard]] const std::vector<std::unique_ptr<BurstBuffer>>& burst_buffers() const {
    return buffers_;
  }
  /// True when every burst buffer has fully drained.
  [[nodiscard]] bool buffers_quiescent() const;

  /// The run's fault weather (empty timeline when no faults configured).
  [[nodiscard]] const fault::Timeline& fault_timeline() const { return timeline_; }

  /// True when the epoch-versioned cluster membership layer is enabled.
  [[nodiscard]] bool cluster_enabled() const { return config_.cluster.enabled; }
  /// The monitor's current (authoritative) cluster map. Meaningful only
  /// when cluster_enabled().
  [[nodiscard]] const ClusterMap& cluster_map() const { return map_; }
  /// Every published epoch, oldest first (index epoch-1). Meaningful only
  /// when cluster_enabled().
  [[nodiscard]] const std::vector<ClusterMap>& cluster_map_history() const {
    return map_history_;
  }
  /// The map epoch `client` currently holds (1 when cluster is disabled).
  [[nodiscard]] std::uint64_t client_epoch(ClientId client) const {
    return cluster_enabled() ? client_epoch_.at(client) : 1;
  }

  /// Aggregate client-side resilience counters.
  [[nodiscard]] const ResilienceStats& resilience_stats() const { return res_stats_; }

  /// True when the durability layer (content tracking, replication,
  /// rebuild, F3) is enabled for this model.
  [[nodiscard]] bool tracking() const { return config_.durability.track_contents; }

  /// Direct (read-only) access to the durability ledger for tests/tools.
  [[nodiscard]] const DurabilityLedger& durability_ledger() const { return ledger_; }

  /// Durability audit: walks every acknowledged byte range and asks whether
  /// some replica in the range's read set still holds the acknowledged
  /// write token. `lost` > 0 means reads of those bytes cannot return the
  /// acknowledged data — the F3 deficit. All zero when tracking is off.
  struct DurabilityReport {
    Bytes acked = Bytes::zero();   ///< total acknowledged bytes audited
    Bytes lost = Bytes::zero();    ///< acked bytes held by no consulted replica
    std::uint64_t lost_ranges = 0; ///< distinct chunk ranges lost
  };
  [[nodiscard]] DurabilityReport durability_report() const;

  /// Online-rebuild progress for one OST (all zero / inactive when no
  /// resync is running).
  struct RebuildStatus {
    bool active = false;
    Bytes total = Bytes::zero();   ///< bytes owed when the resync began
    Bytes done = Bytes::zero();    ///< bytes re-copied so far
    SimTime started = SimTime::zero();
    SimTime eta = SimTime::zero(); ///< remaining / rebuild_bandwidth (uncontended)
  };
  [[nodiscard]] RebuildStatus rebuild_status(OstIndex ost) const;

  /// Campaign-end invariants (sim::check), call after
  /// Engine::assert_drained(). F2: every op abandoned by a retry timeout
  /// must have drained its orphan completions. F3 (durability tracking
  /// only): no acknowledged write may be lost. With the cluster map enabled
  /// the same audit is F4: every acknowledged byte must be readable through
  /// the *placement-aware* read path (current epoch's targets plus the
  /// older-epoch fallback chain, serving OSTs only) across any
  /// join/drain/crash/decommission sequence. F5a: admission accounting is
  /// exact on every server (submitted == completed + rejected + shed).
  /// F5b (retry budget only): retries spent never exceed the burst cap plus
  /// ratio * deposits — retry amplification is bounded by construction.
  /// Pools: no pooled in-flight record is left live in the fabrics, the
  /// MDS, the OSTs or the model itself.
  void assert_quiescent() const;

  /// Server-side overload totals summed across the MDS and every OST.
  struct ServerOverloadTotals {
    std::uint64_t rejected = 0;  ///< bounced at the door (queue bound)
    std::uint64_t shed = 0;      ///< dropped at dequeue (sojourn target)
  };
  [[nodiscard]] ServerOverloadTotals server_overload_totals() const;

 private:
  // Endpoint numbering. Compute fabric: [0, clients) are clients,
  // [clients, clients+io_nodes) are I/O nodes. Storage fabric: [0, io_nodes)
  // are I/O nodes, [io_nodes, io_nodes+osts) are OSTs, last is the MDS.
  [[nodiscard]] net::EndpointId ion_of(ClientId client) const;
  [[nodiscard]] net::EndpointId compute_ep_of_ion(std::uint32_t ion) const;
  [[nodiscard]] net::EndpointId storage_ep_of_ost(OstIndex ost) const;
  [[nodiscard]] net::EndpointId storage_ep_of_mds() const;
  [[nodiscard]] BurstBuffer* buffer_for_ion(std::uint32_t ion);
  /// Fault identity of the burst buffer serving `ion` (index 0 when shared).
  [[nodiscard]] fault::ComponentId bb_id_for_ion(std::uint32_t ion) const;

  /// Degraded-mode striping: the OST a chunk should be shipped to. With
  /// failover enabled and the home OST down, scans forward (mod pool size)
  /// for the first healthy OST; falls back to the home OST if all are down.
  [[nodiscard]] OstIndex route_chunk(OstIndex home, SimTime now);

  /// The stripe-and-ship path from an I/O node to the OSTs (used both by
  /// foreground I/O and burst-buffer drains). `on_done(ok, error)` reports
  /// whether every chunk completed (a chunk rejected by a down OST reports
  /// false). With durability tracking on, `file`/`wtoken` identify the
  /// payload: writes fan out to every live replica of each chunk (down
  /// replicas accrue rebuild debt), reads are served by the first replica
  /// that is up *and* holds the acknowledged data (non-primary = degraded
  /// read), and a read that no consulted replica can serve correctly fails
  /// with kDataLost. `file` = 0 (burst-buffer drains) means untracked.
  /// With the cluster map enabled, `key` is the file's placement key and
  /// `epoch` the issuing client's cached map epoch: placement is computed
  /// from that (possibly stale) epoch's map, and a chunk whose authoritative
  /// placement has since moved is bounced with kStaleMap instead of served.
  /// `on_done` additionally carries the largest server retry-after hint seen
  /// across the fan-out (zero unless some shipment was rejected or shed by
  /// admission control) so the retry path can pace to the drain rate.
  void backend_io(std::uint32_t ion, std::uint64_t file, const StripeLayout& layout,
                  std::uint64_t offset, Bytes size, bool is_write, WriteToken wtoken,
                  std::uint64_t key, std::uint64_t epoch,
                  std::function<void(bool ok, IoError error, SimTime retry_after)> on_done);

  // In-flight records (sim/records.hpp): stage closures capture `this` and
  // a handle into one of these pools.
  // One logical io() op across its (possibly many) attempts.
  struct IoOp;
  // One attempt of an io() op (attempt completion vs. timeout race).
  struct Attempt;
  // Fan-out latch for one backend_io call's shipments.
  struct BackendFanout;
  // One chunk-to-OST shipment of a backend_io call.
  struct Shipment;
  // One meta() call.
  struct MetaCall;
  // One recovering OST's resync pass.
  struct RebuildState;

  void start_attempt(sim::Handle op);
  /// Attempt stages: at the I/O node, back from the backend, back at the
  /// client (its completion, possibly an orphan after a timeout).
  void attempt_at_ion(sim::Handle a);
  void attempt_backend_done(sim::Handle a, bool ok, IoError error, SimTime retry_after);
  void attempt_done(sim::Handle a);
  void attempt_timeout(sim::Handle a);
  void attempt_finished(sim::Handle op, bool ok, IoError error);
  void settle(sim::Handle op, bool ok, IoError error);
  /// Drop one reference to op `op` (its own until settled, one per attempt
  /// in flight); the last one releases the record.
  void unref_op(sim::Handle op);
  /// Shipment stages: at the OST, the OST's completion, back at the I/O node.
  void shipment_at_ost(sim::Handle s);
  void shipment_served(sim::Handle s, OstCompletion c);
  void shipment_done(sim::Handle s);
  /// One shipment of fan-out `f` resolved; the last one delivers.
  void fanout_finish_one(sim::Handle f, bool ok, IoError error);
  void fanout_deliver(sim::Handle f);
  /// Meta-call stages after the MDS replied.
  void meta_replied(sim::Handle m, MetaResult result);
  /// Bump the ResilienceStats row kResilienceKinds names for `kind`, then
  /// emit its client-layer span (`ost` and `bytes` for degraded-read,
  /// detection, breaker and rebuild events; the bytes reach the span only).
  void note(ResilienceEventKind kind, std::uint32_t ost = 0, Bytes bytes = Bytes::zero());
  /// Feed one shipment outcome to `ost`'s circuit breaker (no-op unless
  /// RetryPolicy::breaker); counts and emits open/close transitions.
  void breaker_note(OstIndex ost, bool ok);

  /// True iff OST `ost` is inside a down interval at `t`.
  [[nodiscard]] bool ost_down(OstIndex ost, SimTime t) const;
  /// Begin (or no-op) a resync pass for a just-recovered OST. `migration`
  /// marks an epoch-change migration pass (paced on the drain stream).
  void start_rebuild(OstIndex ost, bool migration = false);
  /// Copy the next owed piece, paced against the rebuild bandwidth cap.
  void run_rebuild_piece(OstIndex ost);
  void finish_rebuild(OstIndex ost);

  // -- cluster membership (all no-ops / unused when cluster is disabled) ---

  /// The map at `epoch` (1-based; epochs are published densely).
  [[nodiscard]] const ClusterMap& map_at(std::uint64_t epoch) const {
    return map_history_.at(epoch - 1);
  }
  /// Start the per-OST heartbeat loop if it is not already ticking.
  void arm_heartbeat(OstIndex ost);
  void heartbeat_tick(OstIndex ost);
  /// Monitor side: a heartbeat from `ost` arrived at the MDS endpoint.
  void monitor_heard(OstIndex ost);
  /// Monitor side: `ost` has been silent for a full grace period.
  void heartbeat_deadline(OstIndex ost);
  [[nodiscard]] SimTime next_heartbeat_delay(OstIndex ost);
  /// Bump the epoch, append to history, and (tracking only) plan migration.
  void publish_epoch();
  void apply_membership(const MembershipEvent& ev);
  /// Walk every acknowledged range; mark + schedule rebuild for each current
  /// placement target that lacks the data (drains, joins, and post-crash
  /// resync all reduce to this).
  void plan_migration();
  /// Model a client map-refresh round trip (client -> ION -> MDS and back)
  /// for io op `op`; the client's cached epoch becomes current on
  /// completion, and the op starts its next attempt.
  void refresh_map(sim::Handle op);
  /// Read-path fallback chain for one stripe: placement targets of every
  /// epoch from `from_epoch` back to 1, deduplicated, newest first. Shared
  /// by foreground reads, rebuild source selection, and the F4 audit so the
  /// audit means exactly "readable through the read path".
  [[nodiscard]] std::vector<OstIndex> read_candidates(std::uint64_t key,
                                                      const StripeLayout& layout,
                                                      std::uint64_t stripe_index,
                                                      std::uint64_t from_epoch) const;

  /// Small fixed header size used for request/ack messages.
  static constexpr Bytes kHeader = Bytes{256};

  sim::Engine& engine_;
  PfsConfig config_;
  fault::Timeline timeline_;
  std::unique_ptr<net::Fabric> compute_fabric_;
  std::unique_ptr<net::Fabric> storage_fabric_;
  std::unique_ptr<MetadataServer> mds_;
  std::vector<std::unique_ptr<OstServer>> osts_;
  std::vector<std::unique_ptr<BurstBuffer>> buffers_;
  Rng retry_rng_;
  Rng rebuild_rng_;
  Rng breaker_rng_;
  // Client-side overload control (inert unless the RetryPolicy knobs are
  // on: no draws, no state changes, no extra events).
  LatencyEstimator latency_;
  RetryBudget budget_;
  std::vector<CircuitBreaker> breakers_;  ///< per-OST; empty unless retry.breaker
  ResilienceStats res_stats_;
  /// Ops abandoned by a timeout whose in-flight events have not yet drained.
  std::uint64_t abandoned_in_flight_ = 0;
  sim::RecordPool<IoOp> ops_;
  sim::RecordPool<Attempt> attempts_;
  sim::RecordPool<BackendFanout> fanouts_;
  sim::RecordPool<Shipment> shipments_;
  sim::RecordPool<MetaCall> metas_;
  // backend_io scratch, reused across calls (planning never re-enters it).
  std::vector<StripeChunk> chunks_;
  std::vector<Shipment> plan_;
  /// File tokens are dense from 1 in first-io() order; 0 = no io() yet.
  std::vector<std::uint64_t> tokens_;  // file -> token
  struct FileInfo {
    FileId file = 0;
    StripeLayout layout{};
    std::uint64_t key = 0;  ///< placement key (file_placement_key(path))
  };
  std::vector<FileInfo> files_;  ///< file table, token t at index t - 1
  [[nodiscard]] const FileInfo& file_info(std::uint64_t token) const;
  DurabilityLedger ledger_;
  std::map<OstIndex, std::unique_ptr<RebuildState>> rebuild_;
  // Cluster membership (populated only when config.cluster.enabled).
  ClusterMap map_;                       ///< the monitor's current map
  std::vector<ClusterMap> map_history_;  ///< every published epoch (index e-1)
  std::vector<std::uint64_t> client_epoch_;  ///< per-client cached epoch
  Rng heartbeat_rng_;
  Rng drain_rng_;
  std::vector<Rng> hb_rng_;              ///< per-OST jitter substreams
  std::vector<sim::EventId> hb_deadline_;  ///< armed grace-expiry event (0 = none)
  std::vector<std::uint8_t> hb_ticking_;   ///< heartbeat loop alive flags
};

}  // namespace pio::pfs
