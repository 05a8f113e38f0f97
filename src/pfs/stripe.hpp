// PIOEval storage substrate: Lustre-style striping arithmetic.
//
// A file's byte range is round-robined across `stripe_count` OSTs in units
// of `stripe_size`. The layout math here is pure and exhaustively
// property-tested: chunk decomposition must exactly tile the request.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace pio::pfs {

using OstIndex = std::uint32_t;

/// Striping parameters for one file.
struct StripeLayout {
  Bytes stripe_size = Bytes::from_mib(1);
  std::uint32_t stripe_count = 4;   ///< number of OSTs the file spans
  OstIndex first_ost = 0;           ///< rotation start (load spreading)
  /// Copies of every chunk, on distinct OSTs. 1 = classic unreplicated
  /// striping; R > 1 enables the durability layer's degraded reads and
  /// online rebuild (requires DurabilityConfig::track_contents).
  std::uint32_t replicas = 1;
};

/// One per-OST piece of a striped request.
struct StripeChunk {
  OstIndex ost = 0;                 ///< absolute OST index (after rotation)
  std::uint64_t object_offset = 0;  ///< byte offset within that OST's object
  Bytes length = Bytes::zero();
  std::uint64_t file_offset = 0;    ///< where this chunk starts in the file
};

/// Decompose a file-range request into per-OST chunks, in file order.
/// `total_osts` is the pool size used to wrap the rotation. The union of the
/// returned chunks exactly equals [offset, offset+size).
[[nodiscard]] std::vector<StripeChunk> decompose(const StripeLayout& layout,
                                                 std::uint32_t total_osts,
                                                 std::uint64_t offset, Bytes size);

/// The same decomposition into `out`, which is cleared first (a caller that
/// reuses one vector allocates only when it grows).
void decompose(const StripeLayout& layout, std::uint32_t total_osts, std::uint64_t offset,
               Bytes size, std::vector<StripeChunk>& out);

/// The OST that holds file byte `offset` under `layout`.
[[nodiscard]] OstIndex ost_for_offset(const StripeLayout& layout, std::uint32_t total_osts,
                                      std::uint64_t offset);

/// Replica `r` (0-based; 0 = primary) of a chunk homed on `home`. Replicas
/// occupy consecutive OSTs mod the pool, so they are pairwise distinct for
/// any replica count <= total_osts.
[[nodiscard]] inline OstIndex replica_ost(OstIndex home, std::uint32_t r,
                                          std::uint32_t total_osts) {
  return (home + r) % total_osts;
}

}  // namespace pio::pfs
