// PIOEval sim: runtime invariant checks for the deterministic engine.
//
// These guard the *internal* invariants the determinism contract rests on
// (monotonic virtual clock, handler-map/heap agreement, fully drained queues
// at campaign end). API-contract violations (scheduling into the past,
// negative delays) always throw from the engine itself; the checks here are
// belt-and-braces assertions that catch engine/model bugs early instead of
// letting them surface as silently divergent replays.
//
// Enabled by default (each check is O(1) on top of O(log n) engine work).
// Define PIO_SIM_NO_CHECKS (cmake -DPIO_SIM_CHECKS=OFF) to compile them out
// for maximum-throughput production sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

namespace pio::sim::check {

#if defined(PIO_SIM_NO_CHECKS)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Throws std::logic_error tagged with the violated invariant. Centralised
/// so a debugger breakpoint on one symbol catches every invariant failure.
[[noreturn]] void fail(const char* invariant, const std::string& detail);

/// Assert `cond`; on failure, report `invariant` (a short stable name) and
/// `detail` (context: sizes, times). `detail` is a string, or a callable
/// returning one that runs only on failure, so context built from numbers
/// costs nothing while the invariant holds. Compiles to nothing when
/// disabled.
template <class Detail = const char*>
inline void that(bool cond, const char* invariant, Detail&& detail = "") {
  if constexpr (kEnabled) {
    if (!cond) [[unlikely]] {
      if constexpr (std::is_invocable_v<Detail>) {
        fail(invariant, std::forward<Detail>(detail)());
      } else {
        fail(invariant, std::forward<Detail>(detail));
      }
    }
  } else {
    (void)cond;
    (void)invariant;
    (void)detail;
  }
}

// -- fault-era invariants ---------------------------------------------------
//
// Introduced with pio::fault: once components can crash and clients can
// abandon in-flight work, two new ways to corrupt a run appear. Callers pass
// plain facts (a down flag, a counter) so this header stays dependency-free.

/// F1: no completion handler may fire on a resource during its down
/// interval. A handler inside the window means a model leaked work across a
/// crash instead of deferring it to recovery (fault::Timeline callers
/// precompute `is_down` at the handler's fire time).
inline void handler_outside_down_interval(bool is_down, const char* resource) {
  that(!is_down, "fault.handler-during-down", resource);
}

/// F2: at campaign end, every op abandoned by a retry timeout/giveup must
/// have drained — its in-flight events completed as orphans or were
/// cancelled, never leaked. `in_flight` is the abandoned-but-undrained
/// count; it must be zero once the engine queue is empty.
inline void abandoned_ops_drained(std::uint64_t in_flight) {
  that(in_flight == 0, "fault.abandoned-op-leak",
       [&] { return std::to_string(in_flight) + " abandoned ops still in flight"; });
}

/// C1: write-back never drops acknowledged bytes. At quiescence every dirty
/// page the client cache acknowledged to the application must have been
/// written back (the durability ledger's F3 audit then confirms the bytes
/// landed). `dirty_pages` is the residual; it must be zero once the engine
/// queue is empty.
inline void cache_writeback_drained(std::uint64_t dirty_pages) {
  that(dirty_pages == 0, "cache.writeback-undrained",
       [&] { return std::to_string(dirty_pages) + " dirty pages never written back"; });
}

/// F3: no acknowledged write is ever lost. At campaign end, every byte
/// range the durability ledger acknowledged to a client must still be held
/// by at least one replica OST (up or down — durability is about the data
/// existing somewhere, not about it being reachable right now). `lost_bytes`
/// is the audited deficit; it must be zero.
inline void acked_writes_durable(std::uint64_t lost_bytes) {
  that(lost_bytes == 0, "fault.acked-write-lost",
       [&] { return std::to_string(lost_bytes) + " acknowledged bytes held by no replica"; });
}

/// Pooled in-flight records (sim/records.hpp) are released exactly when the
/// request they carry resolves. At quiescence `live` records of `pool` are
/// still held; it must be zero — a live record is a request that never
/// resolved, or a stage that forgot to release it.
inline void records_released(std::size_t live, const char* pool) {
  that(live == 0, "sim.records-leak",
       [&] { return std::string(pool) + ": " + std::to_string(live) + " records still live"; });
}

// -- overload-era invariants (F5) ------------------------------------------
//
// Introduced with admission control: once servers can reject or shed work,
// every submitted op must be accounted for exactly once, and client retries
// must stay within the configured budget (DESIGN.md §14).

/// F5a: admission accounting is exact. At quiescence, every op submitted to
/// a server resolved exactly one way: completed ok, rejected at the door
/// (down or overloaded), shed at dequeue, or interrupted by a crash.
/// `accounted` is the sum of those outcome counters; it must equal
/// `submitted` — a gap means an op vanished (or was double-counted).
inline void admission_accounting_exact(std::uint64_t submitted, std::uint64_t accounted,
                                       const char* server) {
  that(submitted == accounted, "overload.admission-accounting", [&] {
    return std::string(server) + ": submitted=" + std::to_string(submitted) +
           " accounted=" + std::to_string(accounted);
  });
}

/// F5b: retry amplification is bounded. With a token-bucket retry budget
/// enabled, the retries actually spent can never exceed the initial burst
/// allowance plus the per-success earn rate: spent <= cap + ratio * deposits.
inline void retry_amplification_bounded(std::uint64_t spent, double allowed) {
  that(static_cast<double>(spent) <= allowed + 1e-9, "overload.retry-amplification", [&] {
    return std::to_string(spent) + " retries spent against an allowance of " +
           std::to_string(allowed);
  });
}

}  // namespace pio::sim::check
