// PIOEval storage substrate: metadata server (MDS).
//
// The paper repeatedly flags metadata as a first-class bottleneck (mdtest in
// §IV.A.1; "metadata-intensive, small-transaction" workflows in §V.C). The
// MDS model owns the simulated namespace and charges a per-operation cost
// from a bounded thread pool, so metadata storms queue and saturate exactly
// like they do on a production MDS.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/path_table.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "pfs/resilience.hpp"
#include "pfs/stripe.hpp"
#include "sim/engine.hpp"
#include "sim/records.hpp"
#include "sim/resources.hpp"

namespace pio::pfs {

enum class MetaOp : std::uint8_t {
  kCreate,
  kOpen,
  kStat,
  kUnlink,
  kMkdir,
  kReaddir,
  kClose,
  kRename,
};

[[nodiscard]] const char* to_string(MetaOp op);

enum class MetaStatus : std::uint8_t {
  kOk,
  kNotFound,
  kExists,
  kNotDir,
  kNotEmpty,
  kUnavailable,  ///< MDS down (fault timeline); no namespace mutation applied
  kOverloaded,   ///< rejected or shed by admission control (DESIGN.md §14);
                 ///< no namespace mutation applied
};

/// Inode as stored by the MDS.
struct Inode {
  bool is_dir = false;
  Bytes size = Bytes::zero();
  StripeLayout layout{};
  SimTime ctime = SimTime::zero();
  SimTime mtime = SimTime::zero();
};

/// Result delivered to the client callback.
struct MetaResult {
  MetaStatus status = MetaStatus::kOk;
  std::optional<Inode> inode;              ///< for Open/Stat/Create
  std::vector<std::string> entries;        ///< for Readdir
  [[nodiscard]] bool ok() const { return status == MetaStatus::kOk; }
};

/// Per-op service costs. Readdir additionally pays per returned entry.
struct MdsConfig {
  SimTime create_cost = SimTime::from_us(250.0);
  SimTime open_cost = SimTime::from_us(60.0);
  SimTime stat_cost = SimTime::from_us(40.0);
  SimTime unlink_cost = SimTime::from_us(200.0);
  SimTime mkdir_cost = SimTime::from_us(220.0);
  SimTime readdir_base_cost = SimTime::from_us(80.0);
  SimTime readdir_per_entry_cost = SimTime::from_us(2.0);
  SimTime close_cost = SimTime::from_us(20.0);
  SimTime rename_cost = SimTime::from_us(260.0);
  std::uint64_t service_threads = 4;
  StripeLayout default_layout{};
  /// Standby failover: namespace mutations append to a journal; on a
  /// scripted MDS crash a standby detects the failure and replays the
  /// journal, after which it serves requests *inside* the down interval.
  /// kMdsDown/kUnavailable becomes a bounded stall instead of an outage.
  bool standby_failover = false;
  /// Time for the standby to notice the primary died (heartbeat loss).
  SimTime failover_detection = SimTime::from_ms(5.0);
  /// Journal replay cost per recorded mutation; the takeover stall grows
  /// with namespace churn, exactly like a real MDT replay.
  SimTime replay_per_entry = SimTime::from_us(20.0);
};

/// Aggregate MDS counters.
struct MdsStats {
  std::uint64_t ops_total = 0;
  std::uint64_t errors = 0;
  SimTime busy_time = SimTime::zero();
  std::uint64_t failover_stalls = 0;     ///< requests that waited for standby takeover
  std::uint64_t standby_takeovers = 0;   ///< down intervals absorbed by the standby
  // Admission accounting (F5a): requests == ops_total at quiescence — every
  // request resolves exactly once (served, error, bounced, or shed).
  std::uint64_t requests = 0;            ///< requests entering request()
  std::uint64_t overload_rejected = 0;   ///< bounced at the door (queue bound)
  std::uint64_t shed_ops = 0;            ///< dropped at grant (sojourn > target)
  /// Queueing delay (µs) of requests at thread grant, served and shed alike.
  Log2Histogram sojourn_us;
};

class MetadataServer {
 public:
  MetadataServer(sim::Engine& engine, const MdsConfig& config);

  MetadataServer(const MetadataServer&) = delete;
  MetadataServer& operator=(const MetadataServer&) = delete;

  /// The id requests name `path` by, assigned on first sight. The namespace
  /// stays keyed by path: readdir is a lexicographic range scan.
  FileId intern(std::string_view path);
  [[nodiscard]] const std::string& path(FileId file) const { return names_.path(file); }

  /// Issue a metadata op. The namespace mutation and the callback both occur
  /// at service completion. `layout` is honoured only for kCreate.
  void request(MetaOp op, FileId file, std::function<void(MetaResult)> on_done,
               std::optional<StripeLayout> layout = std::nullopt);

  /// Synchronous (zero-cost) inode access for internal bookkeeping, e.g.
  /// size updates on write completion (clients cache sizes in real systems).
  /// No lookup: apply() keeps each id's namespace entry current.
  [[nodiscard]] Inode* find_inode(FileId file) { return inodes_[file]; }
  void grow_file(FileId file, Bytes new_size, SimTime mtime);

  /// Attach the fault timeline (owned by the PFS facade; must outlive the
  /// MDS's use). Requests during a down interval fail with kUnavailable;
  /// slowdown intervals scale per-op service costs.
  void set_fault_timeline(const fault::Timeline* timeline) { timeline_ = timeline; }

  /// Configure the admission policy (default: unbounded, the legacy
  /// behaviour). Bounded modes respond MetaStatus::kOverloaded.
  void set_admission(const AdmissionConfig& admission) { admission_ = admission; }

  [[nodiscard]] static fault::ComponentId component_id() {
    return {fault::ComponentKind::kMds, 0};
  }

  [[nodiscard]] const MdsStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t namespace_size() const { return namespace_.size(); }
  [[nodiscard]] std::uint64_t queued_requests() const { return threads_.waiters(); }
  /// Requests accepted and not yet answered.
  [[nodiscard]] std::size_t requests_in_flight() const { return requests_.live(); }
  [[nodiscard]] const MdsConfig& config() const { return config_; }
  /// Mutations journaled so far (drives the standby's replay cost).
  [[nodiscard]] std::uint64_t journal_entries() const { return journal_entries_; }

  /// With standby_failover: the time the standby is ready to serve for the
  /// down interval containing `now` — crash + detection + journal replay,
  /// clamped to the primary's recovery (a fast primary can beat a long
  /// replay). Precondition: timeline says the MDS is down at `now`.
  [[nodiscard]] SimTime standby_ready(SimTime now) const;

 private:
  /// One request, from request() to its reply.
  struct Request {
    MetaOp op = MetaOp::kStat;
    FileId file = 0;
    std::optional<StripeLayout> layout;
    SimTime enqueued = SimTime::zero();
    SimTime cost = SimTime::zero();           ///< service cost, once granted
    MetaStatus status = MetaStatus::kOk;      ///< error to deliver (respond_error)
    std::function<void(MetaResult)> on_done;
  };

  [[nodiscard]] SimTime cost_of(MetaOp op, const std::string& path) const;
  [[nodiscard]] MetaResult apply(const Request& req);
  [[nodiscard]] static std::string parent_of(const std::string& path);
  [[nodiscard]] bool dir_exists(const std::string& path) const;
  /// True iff the MDS is inside a down interval at `t` but the standby has
  /// finished its takeover and is serving (F1 is judged per-service, so a
  /// successful handler in this state is legitimate).
  [[nodiscard]] bool standby_active(SimTime t) const;
  /// Queue request `h` for a service thread.
  void enqueue(sim::Handle h);
  /// The thread pool's sink: shed request `h`, or start its service.
  void granted(sim::Handle h);
  /// Service time elapsed: complete, or defer past a crash.
  void serviced(sim::Handle h);
  /// Terminal non-served response (door bounce / shed): account, emit,
  /// and deliver `status` on the next delta.
  void respond_error(sim::Handle h, MetaStatus status);
  /// Apply + account + release the service thread + deliver the result.
  void complete(sim::Handle h);
  /// A crash hit mid-service: the op fails at recovery, unapplied.
  void lost(sim::Handle h);
  /// Emit the span of request `req`, answered now with `status`.
  void emit_span(const Request& req, MetaStatus status) const;
  /// Release request `h`, then deliver `result` to its issuer.
  void reply(sim::Handle h, MetaResult result);

  sim::Engine& engine_;
  MdsConfig config_;
  AdmissionConfig admission_{};
  sim::TokenPool threads_;
  // Sorted map so Readdir can range-scan children of a directory prefix.
  std::map<std::string, Inode> namespace_;
  PathTable names_;
  std::vector<Inode*> inodes_{nullptr};  // file -> its namespace entry (null: none)
  sim::RecordPool<Request> requests_;
  MdsStats stats_;
  const fault::Timeline* timeline_ = nullptr;
  std::uint64_t journal_entries_ = 0;
  // Takeover time per down-interval start. Lazily filled: the journal
  // cannot grow between the crash and the first query inside the interval
  // (no mutation completes while the primary is down and the standby is
  // not yet up), so the first-query snapshot of journal_entries_ is exact.
  mutable std::map<std::int64_t, SimTime> standby_ready_;
};

}  // namespace pio::pfs
