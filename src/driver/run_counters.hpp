// PIOEval driver: the counter table of one simulated run.
//
// A run reports 28 counters from the client resilience, durability,
// membership, overload-control and cache layers. Each layer declares the
// rows it counts, once, as a slice: pfs::ClientCounters (the 17 rows
// PfsModel counts) and cache::CacheCounters (the 8 rows the cache tier
// counts). RunCounters inherits both slices and adds the 3 rows no single
// layer owns. driver::SimRunResult and eval::CampaignPoint inherit
// RunCounters, so every row keeps one flat name from the increment site to
// the campaign point. Every fold over the table walks for_each_counter_field
// in its frozen order, never the memory layout: the driver's before/after
// deltas, eval::point_digest, the svc::encode_point blob and the
// CampaignResult summary. Adding a counter is one field in its layer's
// slice, one visitor row and its increment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "cache/cache.hpp"
#include "common/types.hpp"
#include "pfs/resilience.hpp"

namespace pio::driver {

/// A run's counter table: the client and cache slices plus the rows that
/// come from the model as a whole.
struct RunCounters : pfs::ClientCounters, cache::CacheCounters {
  std::uint64_t failed_ops = 0;               ///< ops the driver saw fail
  std::uint64_t server_overload_rejected = 0; ///< door bounces across MDS + OSTs
  std::uint64_t server_shed = 0;              ///< CoDel sheds across MDS + OSTs
};

/// Calls f(name, &RunCounters::field) once per counter, in the frozen order
/// of eval::point_digest and svc::encode_point, both pinned by tests: append
/// only. The order is not the memory layout, which puts the slices first.
template <class F>
constexpr void for_each_counter_field(F&& f) {
  f("failed_ops", &RunCounters::failed_ops);
  f("retries", &RunCounters::retries);
  f("timeouts", &RunCounters::timeouts);
  f("giveups", &RunCounters::giveups);
  f("failovers", &RunCounters::failovers);
  f("degraded_reads", &RunCounters::degraded_reads);
  f("data_lost_ops", &RunCounters::data_lost_ops);
  f("rebuilds_completed", &RunCounters::rebuilds_completed);
  f("rebuilt_bytes", &RunCounters::rebuilt_bytes);
  f("stale_map_retries", &RunCounters::stale_map_retries);
  f("map_refreshes", &RunCounters::map_refreshes);
  f("down_detections", &RunCounters::down_detections);
  f("migration_marked_bytes", &RunCounters::migration_marked_bytes);
  f("overload_rejections", &RunCounters::overload_rejections);
  f("budget_denied", &RunCounters::budget_denied);
  f("breaker_opens", &RunCounters::breaker_opens);
  f("breaker_fast_fails", &RunCounters::breaker_fast_fails);
  f("deadline_giveups", &RunCounters::deadline_giveups);
  f("server_overload_rejected", &RunCounters::server_overload_rejected);
  f("server_shed", &RunCounters::server_shed);
  f("cache_hits", &RunCounters::cache_hits);
  f("cache_misses", &RunCounters::cache_misses);
  f("cache_evictions", &RunCounters::cache_evictions);
  f("cache_prefetch_issued", &RunCounters::cache_prefetch_issued);
  f("cache_prefetch_used", &RunCounters::cache_prefetch_used);
  f("cache_prefetch_wasted", &RunCounters::cache_prefetch_wasted);
  f("cache_writebacks", &RunCounters::cache_writebacks);
  f("cache_absorbed_writes", &RunCounters::cache_absorbed_writes);
}

// Every field is eight bytes and the slices add no padding, so a field
// added without a visitor row changes the size but not the row count.
static_assert(sizeof(RunCounters) == [] {
  std::size_t rows = 0;
  for_each_counter_field([&rows](std::string_view, auto) { ++rows; });
  return rows * sizeof(std::uint64_t);
}(), "every RunCounters field needs one for_each_counter_field row");

/// Calls f(name, c.field) once per counter of `c` — a RunCounters or a type
/// derived from it, const or mutable — in the visitor's order.
template <class C, class F>
constexpr void for_each_counter(C& c, F&& f) {
  for_each_counter_field([&](std::string_view name, auto field) { f(name, c.*field); });
}

/// A counter as the u64 that digests and the point codec carry, and back.
constexpr std::uint64_t counter_value(std::uint64_t v) { return v; }
constexpr std::uint64_t counter_value(Bytes v) { return v.count(); }
constexpr void set_counter(std::uint64_t& c, std::uint64_t v) { c = v; }
constexpr void set_counter(Bytes& c, std::uint64_t v) { c = Bytes{v}; }

inline RunCounters& operator+=(RunCounters& a, const RunCounters& b) {
  for_each_counter_field([&](std::string_view, auto field) { a.*field += b.*field; });
  return a;
}

inline RunCounters operator-(RunCounters a, const RunCounters& b) {
  for_each_counter_field([&](std::string_view, auto field) { a.*field -= b.*field; });
  return a;
}

}  // namespace pio::driver
