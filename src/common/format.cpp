#include "common/format.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>

namespace pio {

namespace {

std::string with_unit(double v, const char* unit, int decimals) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(decimals);
  out << v << " " << unit;
  return out.str();
}

}  // namespace

std::string format_bytes(Bytes b) {
  const double v = b.as_double();
  if (v >= 1024.0 * 1024.0 * 1024.0) return with_unit(b.gib(), "GiB", 2);
  if (v >= 1024.0 * 1024.0) return with_unit(b.mib(), "MiB", 2);
  if (v >= 1024.0) return with_unit(b.kib(), "KiB", 2);
  return std::to_string(b.count()) + " B";
}

std::string format_time(SimTime t) {
  // Unit selection on exact integer nanoseconds; only the final display
  // value goes through the floating-point accessors.
  const std::int64_t mag = t.ns() < 0 ? -t.ns() : t.ns();
  if (mag >= 1'000'000'000) return with_unit(t.sec(), "s", 3);
  if (mag >= 1'000'000) return with_unit(t.ms(), "ms", 3);
  if (mag >= 1'000) return with_unit(t.us(), "us", 3);
  return std::to_string(t.ns()) + " ns";
}

std::string format_bandwidth(Bandwidth bw) {
  const double v = bw.bytes_per_sec();
  if (v >= 1024.0 * 1024.0 * 1024.0) return with_unit(bw.gib_per_sec(), "GiB/s", 2);
  if (v >= 1024.0 * 1024.0) return with_unit(bw.mib_per_sec(), "MiB/s", 2);
  if (v >= 1024.0) return with_unit(v / 1024.0, "KiB/s", 2);
  return with_unit(v, "B/s", 1);
}

Bytes parse_bytes(std::string_view text) {
  const auto out_of_range = [&text] {
    return std::invalid_argument("parse_bytes: value out of range in '" + std::string{text} + "'");
  };
  std::size_t i = 0;
  const auto skip_space = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) ++i;
  };
  skip_space();
  const std::size_t start = i;
  std::uint64_t value = 0;
  for (; i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0; ++i) {
    const auto digit = static_cast<std::uint64_t>(text[i] - '0');
    if (value > (UINT64_MAX - digit) / 10) throw out_of_range();
    value = value * 10 + digit;
  }
  if (i == start) throw std::invalid_argument("parse_bytes: no digits in '" + std::string{text} + "'");
  skip_space();
  std::string suffix;
  for (; i < text.size(); ++i) {
    if (std::isspace(static_cast<unsigned char>(text[i])) != 0) break;
    suffix.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(text[i]))));
  }
  skip_space();
  if (i < text.size()) {
    throw std::invalid_argument("parse_bytes: trailing text in '" + std::string{text} + "'");
  }
  int shift = 0;
  if (suffix == "k" || suffix == "kb" || suffix == "kib") {
    shift = 10;
  } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
    shift = 20;
  } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
    shift = 30;
  } else if (!suffix.empty() && suffix != "b") {
    throw std::invalid_argument("parse_bytes: unknown suffix '" + suffix + "'");
  }
  if (value > (UINT64_MAX >> shift)) throw out_of_range();
  return Bytes{value << shift};
}

std::string format_double(double v, int decimals) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(decimals);
  out << v;
  return out.str();
}

std::string format_percent(double fraction, int decimals) {
  return format_double(fraction * 100.0, decimals) + "%";
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("TextTable::add_row: cell count mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c] << std::string(widths[c] - row[c].size(), ' ');
      out << (c + 1 == row.size() ? "\n" : "  ");
    }
  };
  emit_row(header_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c + 1 == widths.size() ? 0 : 2);
  out << std::string(rule, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

}  // namespace pio
