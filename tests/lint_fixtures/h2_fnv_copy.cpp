// piolint fixture: exactly one H2 violation (a hand-rolled FNV-1a prime).
#include <cstdint>

std::uint64_t fold_byte(std::uint64_t h, unsigned char c) {
  return (h ^ c) * 1099511628211ULL;  // the one violation in this file
}
