// PIOEval common: human-readable formatting and parsing of sizes/times, plus
// a minimal fixed-width table printer used by the bench harnesses so every
// reproduced figure prints in a consistent, diffable layout.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace pio {

/// "4.00 KiB", "1.50 GiB", "17 B".
[[nodiscard]] std::string format_bytes(Bytes b);

/// "12.3 us", "4.56 ms", "1.23 s".
[[nodiscard]] std::string format_time(SimTime t);

/// "123.4 MiB/s", "2.30 GiB/s".
[[nodiscard]] std::string format_bandwidth(Bandwidth bw);

/// Parse "64KiB", "4 MiB", "1GiB", "512", "512B" (case-insensitive suffix).
/// Leading and trailing whitespace is allowed. Throws std::invalid_argument
/// on malformed input, on text after the suffix and on a size past 2^64 - 1
/// bytes.
[[nodiscard]] Bytes parse_bytes(std::string_view text);

/// Fixed-point with `decimals` fractional digits.
[[nodiscard]] std::string format_double(double v, int decimals = 2);

/// Percentage "42.3%".
[[nodiscard]] std::string format_percent(double fraction, int decimals = 1);

/// Minimal aligned-column table for bench/report output.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Render with a header underline; columns padded to the widest cell.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pio
