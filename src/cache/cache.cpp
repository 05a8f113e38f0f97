#include "cache/cache.hpp"

#include <stdexcept>

namespace pio::cache {

const char* to_string(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kTwoQ: return "2q";
  }
  return "?";
}

const char* to_string(PrefetchMode mode) {
  switch (mode) {
    case PrefetchMode::kNone: return "none";
    case PrefetchMode::kSequential: return "sequential";
    case PrefetchMode::kEpoch: return "epoch";
  }
  return "?";
}

const char* to_string(CacheScope scope) {
  switch (scope) {
    case CacheScope::kPerRank: return "per-rank";
    case CacheScope::kShared: return "shared";
  }
  return "?";
}

void CacheConfig::validate() const {
  if (page_size <= Bytes::zero()) {
    throw std::invalid_argument("CacheConfig: page_size must be positive");
  }
  if (capacity_pages == 0) {
    throw std::invalid_argument("CacheConfig: capacity_pages must be positive");
  }
  if (write_back && max_dirty_pages >= capacity_pages) {
    throw std::invalid_argument(
        "CacheConfig: max_dirty_pages must be below capacity_pages so eviction "
        "always has a clean victim (invariant C1)");
  }
  if (prefetch == PrefetchMode::kSequential && readahead_pages == 0) {
    throw std::invalid_argument("CacheConfig: sequential prefetch needs readahead_pages > 0");
  }
  if (hit_latency < SimTime::zero()) {
    throw std::invalid_argument("CacheConfig: hit_latency must be non-negative");
  }
  if (local_bandwidth.bytes_per_sec() <= 0.0) {
    throw std::invalid_argument("CacheConfig: local_bandwidth must be positive");
  }
}

CacheStats& CacheStats::operator+=(const CacheStats& other) {
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_evictions += other.cache_evictions;
  cache_prefetch_issued += other.cache_prefetch_issued;
  cache_prefetch_used += other.cache_prefetch_used;
  cache_prefetch_wasted += other.cache_prefetch_wasted;
  cache_writebacks += other.cache_writebacks;
  writeback_failures += other.writeback_failures;
  cache_absorbed_writes += other.cache_absorbed_writes;
  flushes += other.flushes;
  hit_bytes += other.hit_bytes;
  miss_bytes += other.miss_bytes;
  writeback_bytes += other.writeback_bytes;
  absorbed_bytes += other.absorbed_bytes;
  return *this;
}

}  // namespace pio::cache
