#include "pfs/cluster_map.hpp"

#include <algorithm>

#include "common/fnv.hpp"

namespace pio::pfs {

const char* to_string(OstState state) {
  switch (state) {
    case OstState::kUp: return "up";
    case OstState::kDraining: return "draining";
    case OstState::kDown: return "down";
    case OstState::kDecommissioned: return "decommissioned";
  }
  return "?";
}

const char* to_string(PlacementMode mode) {
  switch (mode) {
    case PlacementMode::kRoundRobin: return "round-robin";
    case PlacementMode::kRendezvousHash: return "rendezvous-hash";
  }
  return "?";
}

const char* to_string(MembershipChange change) {
  switch (change) {
    case MembershipChange::kJoin: return "join";
    case MembershipChange::kDrain: return "drain";
    case MembershipChange::kDecommission: return "decommission";
  }
  return "?";
}

std::vector<OstIndex> ClusterMap::placeable_osts() const {
  std::vector<OstIndex> pool;
  pool.reserve(states_.size());
  for (std::uint32_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == OstState::kUp) pool.push_back(i);
  }
  return pool;
}

std::uint64_t file_placement_key(std::string_view path) { return fnv1a64(path); }

namespace {

// SplitMix64 finalizer: the avalanche stage only, applied to a combined key.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t placement_hash(std::uint64_t file_key, std::uint64_t stripe_index, OstIndex ost) {
  std::uint64_t x = file_key + 0x9E3779B97F4A7C15ULL;
  x = mix64(x ^ stripe_index);
  x = mix64(x ^ ost);
  return x;
}

std::vector<OstIndex> placement_targets(const ClusterMap& map, PlacementMode mode,
                                        const StripeLayout& layout, std::uint64_t file_key,
                                        std::uint64_t stripe_index, std::uint32_t replicas) {
  const std::vector<OstIndex> pool = map.placeable_osts();
  if (pool.empty()) return {};
  const std::size_t want = std::min<std::size_t>(std::max<std::uint32_t>(1, replicas),
                                                 pool.size());
  std::vector<OstIndex> targets;
  targets.reserve(want);
  if (mode == PlacementMode::kRoundRobin) {
    // Lane indexing into the *current* pool: removing or adding any pool
    // member renumbers almost every stripe — the full-reshuffle baseline
    // that rendezvous hashing exists to beat.
    const std::uint64_t lane = stripe_index % layout.stripe_count;
    const std::size_t base = (layout.first_ost + lane) % pool.size();
    for (std::size_t r = 0; r < want; ++r) {
      targets.push_back(pool[(base + r) % pool.size()]);
    }
    return targets;
  }
  // Rendezvous (HRW): every pool member scores the stripe; the top-`want`
  // scores win. An OST leaving moves only the stripes it was winning; an
  // OST joining moves only the stripes it now wins — minimal migration.
  std::vector<std::pair<std::uint64_t, OstIndex>> scored;
  scored.reserve(pool.size());
  for (const OstIndex ost : pool) {
    scored.emplace_back(placement_hash(file_key, stripe_index, ost), ost);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;  // higher score wins
    return a.second < b.second;                        // stable tie-break
  });
  for (std::size_t r = 0; r < want; ++r) targets.push_back(scored[r].second);
  return targets;
}

}  // namespace pio::pfs
