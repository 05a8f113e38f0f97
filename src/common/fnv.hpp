// PIOEval common: the FNV-1a 64-bit mixer — the only place its constants
// are spelled (piolint rule H2 flags them anywhere else).
//
// Every determinism digest in the repo is an Fnv64 fold over a canonical
// field order: driver::digest(SimRunResult), eval::point_digest and
// eval::digest(CampaignResult), FacilityResult::digest, the service's
// request keys, and the digests tests and benches pin. They call the
// library digests rather than re-folding result fields by hand.
//
// kFnv64Offset is the published offset basis with its last decimal digit
// missing. Every pinned digest depends on it, so it stays; fnv1a64() below
// is the textbook hash with the published basis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pio {

inline constexpr std::uint64_t kFnv64Offset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv64Prime = 1099511628211ULL;
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// Textbook FNV-1a 64 of `s`: the published basis, no length suffix.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = kFnv1a64Basis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv64Prime;
  }
  return h;
}

/// FNV-1a 64 accumulator. `mix(std::uint64_t)` folds the value's eight
/// little-endian bytes; `mix(std::string)` folds the characters followed by
/// the length (so "ab","c" and "a","bc" digest differently).
class Fnv64 {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffULL;
      hash_ *= kFnv64Prime;
    }
  }
  void mix(const std::string& s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= kFnv64Prime;
    }
    mix(s.size());
  }
  void mix_bytes(const std::uint8_t* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= data[i];
      hash_ *= kFnv64Prime;
    }
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnv64Offset;
};

}  // namespace pio
