// PIOEval cache: the client-side caching & prefetching tier (DESIGN.md §10).
//
// The paper's emerging-workload findings (§V.B) center on AI/DL training
// I/O: many small, random, re-read-heavy accesses that a stripe-and-seek
// storage stack serves poorly. Node-local caching and prefetching is the
// mitigation the surveyed systems reach for — and, in the FBench spirit,
// cache policy must be a sweepable campaign axis, not a hardcoded constant.
// This header defines the shared vocabulary: configuration knobs, the
// counter block every integration exports, and the span kinds that feed
// hit-rate time series into the monitoring layer.
#pragma once

#include <cstdint>

#include "common/seed_streams.hpp"
#include "common/types.hpp"

namespace pio::cache {

/// Engine Rng stream id reserved for epoch-warming order/pacing. Warm
/// schedules must replay byte-identically for equal campaign seeds; claimed
/// in the seed-stream registry (common/seed_streams.hpp, rule S1).
inline constexpr std::uint64_t kWarmRngStream = seeds::kCacheWarmStream;

/// Page replacement policy.
enum class EvictionPolicy : std::uint8_t {
  kLru,   ///< classic least-recently-used
  kTwoQ,  ///< 2Q/ARC-lite: FIFO admission queue + LRU main + ghost list
};

[[nodiscard]] const char* to_string(EvictionPolicy policy);

/// Prefetching strategy layered on the page cache.
enum class PrefetchMode : std::uint8_t {
  kNone,
  kSequential,  ///< readahead: N pages beyond a detected sequential stream
  kEpoch,       ///< DL-epoch-aware: warm the previous epoch's access set
};

[[nodiscard]] const char* to_string(PrefetchMode mode);

/// Who shares one cache instance on the simulated path. Per-rank models a
/// private process cache; shared models a node-local tier every rank can
/// hit (the distinction matters under DL reshuffling, where each epoch
/// re-partitions samples across ranks).
enum class CacheScope : std::uint8_t { kPerRank, kShared };

[[nodiscard]] const char* to_string(CacheScope scope);

/// Cache configuration — a first-class campaign sweep axis.
struct CacheConfig {
  /// Master switch for the simulated client tier (the vfs decorator is
  /// enabled by constructing it, so it ignores this flag).
  bool enabled = false;
  Bytes page_size = Bytes::from_kib(64);
  std::uint64_t capacity_pages = 1024;
  EvictionPolicy policy = EvictionPolicy::kLru;
  PrefetchMode prefetch = PrefetchMode::kNone;
  /// Pages of readahead per detected sequential stream.
  std::uint32_t readahead_pages = 4;
  /// Write-back: absorb writes into dirty pages, flush on pressure, fsync,
  /// close, and quiescence. False = write-through (pages cached clean).
  bool write_back = true;
  /// Dirty-page bound; exceeding it triggers write-back of the oldest dirty
  /// pages. Must stay below capacity_pages so eviction always has a clean
  /// victim (invariant C1: dirty pages are never silently dropped).
  std::uint64_t max_dirty_pages = 256;
  /// Simulated-tier only: cache sharing scope.
  CacheScope scope = CacheScope::kPerRank;
  /// Simulated-tier cost model: a hit costs node-local latency + transfer
  /// instead of a fabric + OST round trip.
  SimTime hit_latency = SimTime::from_us(2.0);
  Bandwidth local_bandwidth = Bandwidth::from_gib_per_sec(2.0);
  /// Delay before a failed write-back is retried (keeps C1 under faults).
  SimTime writeback_retry = SimTime::from_ms(5.0);

  /// Throws std::invalid_argument on nonsensical combinations (zero page
  /// size, dirty bound >= capacity, ...).
  void validate() const;
};

/// The cache rows of a run's counter table (driver::RunCounters): declared
/// here, counted by the page cache and its integrations, and inherited by
/// the run's result.
struct CacheCounters {
  std::uint64_t cache_hits = 0;             ///< page lookups served from cache
  std::uint64_t cache_misses = 0;           ///< page lookups that went to the backend
  std::uint64_t cache_evictions = 0;        ///< pages dropped to make room
  std::uint64_t cache_prefetch_issued = 0;  ///< pages fetched speculatively
  std::uint64_t cache_prefetch_used = 0;    ///< prefetched pages later hit
  std::uint64_t cache_prefetch_wasted = 0;  ///< prefetched pages evicted/expired unused
  std::uint64_t cache_writebacks = 0;       ///< dirty pages written through
  std::uint64_t cache_absorbed_writes = 0;  ///< write ops acknowledged from the cache

  /// Page-granular hit rate in [0, 1]; 0 when the cache saw no lookups.
  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
};

/// The counter block every cache integration exports: the reported
/// CacheCounters plus the totals no run's counter table carries.
struct CacheStats : CacheCounters {
  std::uint64_t writeback_failures = 0;  ///< write-back attempts that failed (retried)
  std::uint64_t flushes = 0;             ///< explicit flush passes (fsync/close/quiesce)
  Bytes hit_bytes = Bytes::zero();       ///< request bytes served from cached pages
  Bytes miss_bytes = Bytes::zero();      ///< request bytes fetched from the backend
  Bytes writeback_bytes = Bytes::zero();  ///< dirty bytes written through
  Bytes absorbed_bytes = Bytes::zero();   ///< write bytes acknowledged from cache

  CacheStats& operator+=(const CacheStats& other);
};

/// Cache activity event: the kind of a cache-layer obs::Span, which
/// trace::ServerStatsCollector counts per window by the kind's value (the
/// hit-rate time series). Spans are per op while most CacheStats rows are
/// per page, so the cache's integrations count their rows by hand.
enum class CacheEventKind : std::uint8_t {
  kHit,            ///< an op served (partly) from cache; bytes = hit bytes
  kMiss,           ///< an op that fetched from the backend; bytes = miss bytes
  kEviction,       ///< a page dropped; bytes = page size
  kPrefetchIssue,  ///< speculative pages requested; bytes = prefetched bytes
  kWriteback,      ///< dirty bytes written through; bytes = flushed bytes
  kAbsorbedWrite,  ///< a write acknowledged from the cache; bytes = op bytes
  kCount,          ///< the number of kinds; not a kind
};

}  // namespace pio::cache
