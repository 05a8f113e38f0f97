// PIOEval cache: the simulated-path integration — a DES-timed client cache.
//
// ClientCacheTier sits between the execution-driven simulator and the
// PfsModel data path, exactly where a node-local cache sits between an
// application and its parallel file system client. A page hit costs
// node-local latency plus a local-bandwidth transfer; a miss fetches whole
// pages through the full simulated stack (fabric, I/O node, OST) and
// populates the cache. Writes are absorbed into dirty pages (write-back) or
// passed through (write-through); dirty pages drain in the background under
// the max_dirty_pages bound and synchronously on fsync/close.
//
// Invariant C1: an absorbed write is an acknowledgement, so its dirty page
// is never dropped. Eviction takes clean pages only (PageCache enforces
// this structurally); a failed write-back — an OST down under pio::fault —
// leaves the page dirty and retries after writeback_retry until the bytes
// land. At quiescence the driver asserts dirty_pages() == 0
// (sim::check::cache_writeback_drained) and PfsModel::assert_quiescent
// audits the durability ledger (F3), closing the loop from cache
// acknowledgement to replica-held bytes.
//
// The epoch prefetcher (PrefetchMode::kEpoch) learns each epoch's page
// access set per cache instance and, at the epoch barrier, warms the pages
// that are no longer resident in a deterministic shuffled order drawn from
// engine Rng stream kWarmRngStream, with at most four fetches in flight.
// Under DL reshuffling a *shared* (node-local) cache re-hits the warmed set
// in full; per-rank caches only re-hit their ~1/N share — the scope axis
// exists to expose exactly that effect.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cache/cache.hpp"
#include "cache/page_cache.hpp"
#include "common/types.hpp"
#include "pfs/pfs.hpp"
#include "pfs/stripe.hpp"
#include "sim/engine.hpp"

namespace pio::cache {

class ClientCacheTier {
 public:
  /// `ranks` sizes the per-rank cache array (ignored for kShared scope).
  ClientCacheTier(sim::Engine& engine, pfs::PfsModel& model, const CacheConfig& config,
                  std::int32_t ranks);

  ClientCacheTier(const ClientCacheTier&) = delete;
  ClientCacheTier& operator=(const ClientCacheTier&) = delete;

  /// Completion of one cached data op: `ok` is the op outcome, `hit_bytes`
  /// how much of it was served from resident pages (for trace/observability).
  using IoDone = std::function<void(bool ok, Bytes hit_bytes)>;

  /// Read through the cache: resident pages cost node-local time, missing
  /// page runs fetch through the PFS model and populate the cache.
  void read(std::int32_t rank, FileId file, const pfs::StripeLayout& layout,
            std::uint64_t offset, Bytes size, IoDone on_done);

  /// Write through the cache: absorbed into dirty pages under write-back
  /// (hit_bytes = absorbed bytes), else written through (hit_bytes = 0).
  void write(std::int32_t rank, FileId file, const pfs::StripeLayout& layout,
             std::uint64_t offset, Bytes size, IoDone on_done);

  /// Write-back barrier for one file (fsync/close semantics): completes only
  /// after every dirty page of the file has landed, retrying failed
  /// write-backs after writeback_retry (C1: never drop, always retry).
  void flush_path(std::int32_t rank, FileId file, std::function<void()> on_done);

  /// Drop every cached page of a file, dirty included (unlink discards).
  void invalidate_path(FileId file);

  /// Start draining every remaining dirty page (end-of-run quiescence; the
  /// engine run that follows completes the write-backs, retries included).
  void flush_all();

  /// Epoch boundary (the driver calls this at each global barrier release):
  /// rotates the learned access set and, for PrefetchMode::kEpoch, starts
  /// warming the previous epoch's pages on Rng stream kWarmRngStream.
  void epoch_mark();

  /// End-of-run bookkeeping: folds never-hit prefetched pages into
  /// prefetch_wasted. Call after the engine drained.
  void finalize();

  /// Aggregated counter block across all cache instances.
  [[nodiscard]] CacheStats stats() const;
  /// Total dirty pages across all cache instances (C1: must be zero at
  /// quiescence).
  [[nodiscard]] std::uint64_t dirty_pages() const;
  [[nodiscard]] std::uint64_t epochs_marked() const { return epochs_; }

 private:
  /// One cache instance plus its prefetch/write-back state. kShared scope
  /// has exactly one slot; kPerRank has one per rank.
  struct Slot {
    explicit Slot(const CacheConfig& config) : cache(config) {}
    PageCache cache;
    std::vector<PageKey> epoch_order;  ///< this epoch's first-touches, in order
    std::set<PageKey> epoch_seen;
    std::set<PageKey> inflight;        ///< write-backs currently in the model
    std::list<PageKey> warm_queue;
    std::uint32_t warm_inflight = 0;
    std::map<std::uint64_t, std::uint64_t> next_offset;  ///< sequential detector
  };

  [[nodiscard]] std::size_t slot_index(std::int32_t rank) const;
  /// Keep the layout the tier first sees for `file`: write-back and epoch
  /// warming address the file through it.
  void see(FileId file, const pfs::StripeLayout& layout);
  [[nodiscard]] const pfs::StripeLayout& layout_of(std::uint64_t file) const;
  [[nodiscard]] pfs::ClientId client_of(std::int32_t rank) const;
  /// True when an insert can find a free slot or a clean victim.
  [[nodiscard]] static bool can_insert(const PageCache& cache, std::uint64_t capacity);
  /// Emit a cache-layer span for `rank` at the current time.
  void record(CacheEventKind kind, std::int32_t rank, Bytes bytes);
  void note_access(Slot& slot, PageKey key);
  /// Simulated node-local service time for `bytes` served from cache.
  [[nodiscard]] SimTime local_cost(Bytes bytes) const;
  /// Drive one dirty page to clean: issues the write-back unless one is
  /// already in flight, retries failures after writeback_retry, and calls
  /// `on_clean` once the page is clean (or gone).
  void settle_page(std::size_t slot_idx, PageKey key, std::function<void()> on_clean);
  /// Background pressure relief: settle oldest dirty pages above the bound.
  void pump_writebacks(std::size_t slot_idx);
  void warm_next(std::size_t slot_idx);

  sim::Engine& engine_;
  pfs::PfsModel& model_;
  CacheConfig config_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::optional<pfs::StripeLayout>> layouts_;  ///< by the model's FileId
  std::uint64_t epochs_ = 0;
};

}  // namespace pio::cache
