// PIOEval driver: the counter table of one simulated run.
//
// A run reports 28 counters from the client resilience, durability,
// membership, overload-control and cache layers. They are declared once,
// here, and listed once, in for_each_counter_field. driver::SimRunResult and
// eval::CampaignPoint inherit them, and every fold over them walks the
// visitor: the driver's before/after deltas, eval::point_digest, the
// svc::encode_point blob and the CampaignResult summary. Adding a counter
// means one field, one visitor row and its increment site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace pio::driver {

/// The field order is the canonical order of eval::point_digest and
/// svc::encode_point, both pinned by tests: frozen, append only.
struct RunCounters {
  // Client-side resilience (all zero on fault-free runs with the default
  // retry policy).
  std::uint64_t failed_ops = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t giveups = 0;
  std::uint64_t failovers = 0;
  // Durability layer (zero unless durability tracking is enabled).
  std::uint64_t degraded_reads = 0;
  std::uint64_t data_lost_ops = 0;
  std::uint64_t rebuilds_completed = 0;
  Bytes rebuilt_bytes = Bytes::zero();
  // Cluster membership (zero when the cluster map is disabled).
  std::uint64_t stale_map_retries = 0;
  std::uint64_t map_refreshes = 0;
  std::uint64_t down_detections = 0;
  Bytes migration_marked_bytes = Bytes::zero();
  // Overload control (zero with the admission / budget / breaker / deadline
  // knobs at their off defaults; DESIGN.md §14).
  std::uint64_t overload_rejections = 0;      ///< attempts failed with kOverloaded
  std::uint64_t budget_denied = 0;            ///< retries denied by the token bucket
  std::uint64_t breaker_opens = 0;            ///< circuit-breaker open transitions
  std::uint64_t breaker_fast_fails = 0;       ///< chunks fast-failed client-side
  std::uint64_t deadline_giveups = 0;         ///< ops settled kDeadlineExceeded
  std::uint64_t server_overload_rejected = 0; ///< door bounces across MDS + OSTs
  std::uint64_t server_shed = 0;              ///< CoDel sheds across MDS + OSTs
  // Client cache tier (zero when the cache is disabled).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_prefetch_issued = 0;
  std::uint64_t cache_prefetch_used = 0;
  std::uint64_t cache_prefetch_wasted = 0;
  std::uint64_t cache_writebacks = 0;
  std::uint64_t cache_absorbed_writes = 0;

  /// Page-granular cache hit rate in [0, 1]; 0 when the cache saw nothing.
  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
};

/// Calls f(name, &RunCounters::field) once per counter, in field order.
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

// Every field is eight bytes, so a field added without a visitor row
// changes the size but not the row count.
static_assert(sizeof(RunCounters) == [] {
  std::size_t rows = 0;
  for_each_counter_field([&rows](std::string_view, auto) { ++rows; });
  return rows * sizeof(std::uint64_t);
}(), "every RunCounters field needs one for_each_counter_field row");

/// Calls f(name, c.field) once per counter of `c` — a RunCounters or a type
/// derived from it, const or mutable — in field order.
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
