// PIOEval common: the canonical engine RNG seed-stream registry.
//
// Every subsystem that draws engine-level randomness does so on a dedicated
// `pio::Rng` stream keyed by (campaign seed, stream id) — that is what makes
// components composable without perturbing each other's draws, and what
// keeps the campaign determinism digest thread-count-invariant (DESIGN.md
// §7, §11). Two subsystems sharing a stream id silently draw *correlated*
// randomness, and a raw hex literal at a call site is exactly the kind of
// cross-file duplication that caused it: before this registry the
// 0xFA0170xx block was spelled out independently in src/fault, src/cache,
// and src/pfs.
//
// Registry policy (enforced by piolint rule S1, which runs in CI):
//   1. Every engine-level stream id is *defined* here and only here, as an
//      `inline constexpr std::uint64_t k<Subsystem><Purpose>Stream`.
//   2. Subsystems reference the registry constant by name — either directly
//      or through a local alias initialised from it (aliases are fine; a
//      fresh integer literal is not).
//   3. To claim a new stream: take the next free id in the block, append it
//      to this file *and* to `detail::kAllStreams` below (the static_assert
//      makes a copy-paste collision a compile error), and note the owning
//      subsystem in the comment. Never reuse a retired id — old campaign
//      digests were computed against it.
//   4. Sub-draws inside one subsystem fork from its stream via
//      `Rng::substream(k)`; they do not claim new registry ids.
//
// piolint S1 flags (a) any `k...Stream = <literal>` definition outside this
// file, (b) two definitions sharing a value, and (c) any raw literal equal
// to a claimed id anywhere in the tree.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pio::seeds {

// 0xFA017000 block: engine-level subsystem streams ("FA017" ≈ fault-to-IO
// evaluation, the PR-2 era prefix kept for digest compatibility).

/// pio::fault — materializing stochastic fault plans from the campaign seed.
inline constexpr std::uint64_t kFaultPlanStream = 0xFA017000ULL;

/// pio::pfs — client retry/backoff jitter (resilience.hpp).
inline constexpr std::uint64_t kRetryJitterStream = 0xFA017001ULL;

/// pio::pfs — online OST rebuild pacing jitter (durability.hpp).
inline constexpr std::uint64_t kRebuildPaceStream = 0xFA017002ULL;

/// pio::cache — DL-epoch warming order/pacing (cache.hpp).
inline constexpr std::uint64_t kCacheWarmStream = 0xFA017003ULL;

/// pio::pfs — per-OST heartbeat emission jitter (cluster_map.hpp). Each OST
/// forks its own substream(i) so adding an OST never shifts another's beats.
inline constexpr std::uint64_t kHeartbeatJitterStream = 0xFA017004ULL;

/// pio::pfs — membership-migration (drain) rebuild pacing jitter
/// (cluster_map.hpp). Distinct from kRebuildPaceStream so crash-recovery
/// resyncs and drain-driven migrations never share draws.
inline constexpr std::uint64_t kDrainPaceStream = 0xFA017005ULL;

/// pio::pfs — circuit-breaker open-window jitter (resilience.hpp). Each
/// breaker's open duration is decorrelated so half-open probes from many
/// clients never synchronize into a probe storm.
inline constexpr std::uint64_t kBreakerProbeStream = 0xFA017006ULL;

/// pio::svc load harness — per-session arrival jitter and campaign-spec
/// sampling in the many-client generator (bench_cf5_service, pioevald
/// --load). Service-side scheduling itself draws no randomness; only the
/// simulated client population does.
inline constexpr std::uint64_t kSvcArrivalJitterStream = 0xFA017007ULL;

/// pio::eval facility runs — per-cell campaign arrival jitter (facility.hpp).
/// Each cell forks substream(cell index), so adding a cell never shifts
/// another cell's start time; running cells as pool tasks draws no randomness.
inline constexpr std::uint64_t kFacilityArrivalStream = 0xFA017008ULL;

namespace detail {

inline constexpr std::uint64_t kAllStreams[] = {
    kFaultPlanStream,
    kRetryJitterStream,
    kRebuildPaceStream,
    kCacheWarmStream,
    kHeartbeatJitterStream,
    kDrainPaceStream,
    kBreakerProbeStream,
    kSvcArrivalJitterStream,
    kFacilityArrivalStream,
};

constexpr bool all_distinct() {
  constexpr std::size_t n = sizeof(kAllStreams) / sizeof(kAllStreams[0]);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (kAllStreams[i] == kAllStreams[j]) return false;
    }
  }
  return true;
}

}  // namespace detail

static_assert(detail::all_distinct(),
              "seed-stream registry: two subsystems claim the same stream id");

}  // namespace pio::seeds
