// PIOEval driver: execution-driven and trace-driven storage simulation.
//
// §IV.C.3: "the execution-driven simulation model is similar to trace-driven
// simulation except that the application under study and the simulation are
// interleaved, i.e., the workload produce and workload consume event streams
// are interleaved." The ExecutionDrivenSimulator pulls each rank's next
// operation only when its previous one completes inside the DES — no trace
// is ever materialized. Trace-driven simulation (§IV.C.2) is the same
// machinery fed by a workload reconstructed from a recorded trace (see
// pio::replay::workload_from_trace).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/client_tier.hpp"
#include "common/types.hpp"
#include "driver/run_counters.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
#include "trace/event.hpp"
#include "workload/op.hpp"

namespace pio::driver {

struct SimRunConfig {
  /// Layout used when the workload creates files (per-file override hooks
  /// can come from the DSL later).
  pfs::StripeLayout layout{};
  /// Abort if simulated time exceeds this (deadlock/bug guard).
  SimTime time_limit = SimTime::from_sec(86'400.0);
  /// Client-side cache tier (DESIGN.md §10). Disabled by default: every
  /// data op traverses the full simulated stack. When `cache.enabled`, reads
  /// and writes go through a ClientCacheTier in front of the PFS client
  /// path, fsync/close become write-back barriers, and each global barrier
  /// marks a DL epoch boundary for the epoch prefetcher.
  cache::CacheConfig cache{};
};

/// Aggregate result of one simulated run: the layer counters of the
/// RunCounters base (deltas over this run) plus the run's own totals.
struct SimRunResult : RunCounters {
  SimTime makespan = SimTime::zero();      ///< first issue to last completion
  std::uint64_t ops = 0;
  std::uint64_t data_ops = 0;
  std::uint64_t meta_ops = 0;
  // Client cache tier totals beyond the RunCounters (zero when disabled).
  std::uint64_t cache_writeback_failures = 0;
  Bytes cache_hit_bytes = Bytes::zero();
  Bytes cache_miss_bytes = Bytes::zero();
  Bytes cache_writeback_bytes = Bytes::zero();
  Bytes bytes_read = Bytes::zero();
  Bytes bytes_written = Bytes::zero();
  SimTime read_time = SimTime::zero();     ///< summed per-op read latency
  SimTime write_time = SimTime::zero();
  SimTime meta_time = SimTime::zero();
  std::vector<SimTime> rank_finish;        ///< per-rank completion time

  [[nodiscard]] Bandwidth read_bandwidth() const {
    return observed_bandwidth(bytes_read, makespan);
  }
  [[nodiscard]] Bandwidth write_bandwidth() const {
    return observed_bandwidth(bytes_written, makespan);
  }
  [[nodiscard]] Bandwidth aggregate_bandwidth() const {
    return observed_bandwidth(bytes_read + bytes_written, makespan);
  }
};

/// FNV-1a fold of every SimRunResult field — the run-level determinism
/// oracle the model goldens pin. The order is frozen: makespan, ops,
/// data_ops, meta_ops, the RunCounters (with cache_writeback_failures
/// before cache_absorbed_writes), the byte totals, the latency sums, then
/// rank_finish.
[[nodiscard]] std::uint64_t digest(const SimRunResult& result);

/// Runs a workload against a PFS model inside its DES engine.
///
/// Rank r of the workload is mapped to PFS client r % clients. Barriers
/// synchronize all workload ranks (SPMD semantics: every rank must execute
/// the same number of barriers, or the run aborts with a diagnostic).
class ExecutionDrivenSimulator {
 public:
  ExecutionDrivenSimulator(sim::Engine& engine, pfs::PfsModel& model,
                           SimRunConfig config = {});

  /// Simulate `workload` to completion. If `sink` is non-null, every
  /// simulated operation is emitted as a POSIX-layer TraceEvent with
  /// virtual timestamps — this is how the "measurement" phase of the
  /// closed loop observes the simulated testbed.
  SimRunResult run(const workload::Workload& workload, trace::Sink* sink = nullptr);

  /// External-drive mode, for launching a simulator from an event the caller
  /// schedules (eval::run_facility's cells): `begin` installs the
  /// workload and schedules every rank's first step on the engine but does
  /// not run it — the caller owns engine advancement. When the last rank
  /// finishes, the cache tier (if any) starts its quiescence flush from
  /// inside the completing event. Once the engine has fully drained,
  /// `collect` finalizes and returns the result (throwing the same stall
  /// diagnostic as `run` if ranks never finished).
  /// `run` itself is unaffected by this API — identical event sequence,
  /// identical digests.
  void begin(const workload::Workload& workload, trace::Sink* sink = nullptr);

  /// Finalize and return the result of a `begin`-driven run (`run` ends
  /// here too): cache finalize and stats, makespan, model stat deltas.
  SimRunResult collect();

  /// The cache tier of the most recent run (nullptr when disabled).
  [[nodiscard]] const cache::ClientCacheTier* cache_tier() const { return tier_.get(); }

 private:
  /// A rank has at most one op in flight: the op and its issue time live
  /// here, so the stage callbacks capture only the rank.
  struct RankState {
    std::unique_ptr<workload::RankStream> stream;
    workload::Op op;                ///< the op in flight (or the barrier waited on)
    SimTime start = SimTime::zero();  ///< when `op` was issued
    bool done = false;
    bool at_barrier = false;
    SimTime finish = SimTime::zero();
  };

  /// Shared setup: reset state, build the cache tier, snapshot the model's
  /// stat baselines, schedule every rank's first step.
  void begin_impl(const workload::Workload& workload, trace::Sink* sink);
  /// The model's cumulative resilience and server overload counters, as the
  /// RunCounters a run reports the deltas of.
  [[nodiscard]] RunCounters model_counters() const;

  void advance(std::int32_t rank);
  /// Issue the rank's op; it completes through complete_op.
  void issue(std::int32_t rank);
  void issue_meta(std::int32_t rank);
  void meta_done(std::int32_t rank, const pfs::MetaResult& result);
  /// A data op served through the cache tier: `hit_bytes` came from it.
  void cached_done(std::int32_t rank, bool ok, Bytes hit_bytes);
  void complete_op(std::int32_t rank, bool ok);
  void release_barrier();
  [[nodiscard]] pfs::ClientId client_of(std::int32_t rank) const;

  sim::Engine& engine_;
  pfs::PfsModel& model_;
  SimRunConfig config_;
  trace::Sink* sink_ = nullptr;
  std::unique_ptr<cache::ClientCacheTier> tier_;
  std::vector<RankState> ranks_;
  // By the running workload's file id: the model's id for the path, and the
  // layout the last create/open/stat returned (until then the default).
  const PathTable* paths_ = nullptr;
  std::vector<FileId> files_;
  std::vector<pfs::StripeLayout> layouts_;
  std::uint64_t barrier_waiting_ = 0;
  std::uint64_t active_ranks_ = 0;
  SimRunResult result_;
  // External-drive (begin/collect) state. `run` keeps external_drive_ false
  // so its event sequence is untouched by the split.
  bool external_drive_ = false;
  RunCounters counters_before_{};
  SimTime start_time_ = SimTime::zero();
};

}  // namespace pio::driver
