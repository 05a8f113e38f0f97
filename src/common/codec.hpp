// PIOEval common: bounds-checked binary encode/decode primitives — the only
// binary format code in the library (DESIGN.md §15).
//
// The service's CRC-guarded frames and their payloads, binary trace files
// and the MPI-IO layer's collective piece lists are all written with a
// Writer and read with a Reader. (par::encode only moves a typed value
// between rank threads of one process; it defines no format.) Encoding is explicit little-endian
// regardless of host order, so encoded bytes are a stable wire/file format.
// Decoding never throws and never reads out of bounds: a `Reader` goes
// *sticky-bad* on the first short or malformed read, every subsequent
// extraction returns a default value, and the caller checks `ok()` (and
// usually `done()`) once at the end — strict decoders reject both truncated
// and trailing bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pio::codec {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes.
/// The frame codec guards every payload with it; check value for the
/// ASCII bytes "123456789" is 0xCBF43926. Slice-by-8: eight bytes per step
/// through eight lookup tables, the same value on any host byte order.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Append-only little-endian encoder over a caller's vector that outlives
/// it; each field lands after the bytes `out` already holds, with one
/// resize of the vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : buf_(out) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v), 8); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    le(bits, 8);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// u32 length prefix + raw bytes. Throws std::length_error past
  /// `max_len`, the bound Reader::str enforces, so every string written
  /// reads back (pass UINT32_MAX where the reader bounds a string only by
  /// the bytes present).
  void str(const std::string& s, std::size_t max_len = 1 << 16) {
    if (s.size() > max_len || s.size() > UINT32_MAX) {
      throw std::length_error("codec::Writer::str: " + std::to_string(s.size()) +
                              " bytes exceed the limit of " + std::to_string(max_len));
    }
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  /// u32 length prefix + raw bytes.
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes(b.data(), b.size());
  }
  void bytes(const std::uint8_t* data, std::size_t n) { buf_.insert(buf_.end(), data, data + n); }
  /// Overwrite the four bytes at `offset`, already written, with `v`: a
  /// length or checksum field filled in once the bytes it covers exist.
  void patch_u32(std::size_t offset, std::uint32_t v) { store_le(buf_.data() + offset, v, 4); }

 private:
  static void store_le(std::uint8_t* at, std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  /// One resize per field, then the bytes in place.
  void le(std::uint64_t v, std::size_t width) {
    const std::size_t at = buf_.size();
    buf_.resize(at + width);
    store_le(buf_.data() + at, v, width);
  }
  std::vector<std::uint8_t>& buf_;
};

/// Sticky-failure little-endian decoder over a borrowed byte span.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : data_(data), size_(n) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  [[nodiscard]] std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  [[nodiscard]] std::uint64_t u64() { return le(8); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(le(8)); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = le(8);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return ok_ ? v : 0.0;
  }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  /// Length-prefixed string; a prefix longer than the remaining bytes or
  /// than `max_len` marks the reader bad (defends against hostile lengths).
  [[nodiscard]] std::string str(std::size_t max_len = 1 << 16) {
    const std::uint32_t n = u32();
    if (n > max_len) ok_ = false;
    const std::uint8_t* p = bytes(n);
    return p == nullptr ? std::string{} : std::string(reinterpret_cast<const char*>(p), n);
  }
  /// Length-prefixed byte blob, bounded only by the bytes present.
  [[nodiscard]] std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    const std::uint8_t* p = bytes(n);
    return p == nullptr ? std::vector<std::uint8_t>{} : std::vector<std::uint8_t>(p, p + n);
  }
  /// The next `n` raw bytes, borrowed from the span; nullptr (and the
  /// reader bad) when fewer remain.
  [[nodiscard]] const std::uint8_t* bytes(std::size_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return nullptr;
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  /// Mark the reader bad: a caller's semantic check (an out-of-range enum
  /// byte, a count over its limit) fails the decode like a short read.
  void fail() { ok_ = false; }

  /// True until the first out-of-bounds or malformed extraction.
  [[nodiscard]] bool ok() const { return ok_; }
  /// True when every byte has been consumed (and the reader is still ok).
  [[nodiscard]] bool done() const { return ok_ && pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  std::uint64_t le(int width) {
    const std::uint8_t* p = bytes(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    if (p == nullptr) return v;
    for (int i = 0; i < width; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pio::codec
