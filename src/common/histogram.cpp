#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace pio {

void Log2Histogram::add(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  const std::size_t bucket =
      value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value) - 1);
  buckets_[bucket] += count;
  total_ += count;
  sum_ += value * count;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

std::uint64_t Log2Histogram::bucket_count(std::size_t bucket) const {
  return buckets_.at(bucket);
}

double Log2Histogram::mean() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(total_);
}

std::uint64_t Log2Histogram::quantile_bucket_floor(double q) const {
  if (q < 0.0 || q > 1.0) throw std::domain_error("quantile_bucket_floor: q out of [0,1]");
  if (total_ == 0) return 0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
  std::uint64_t running = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    running += buckets_[k];
    if (running > target || (running == total_ && running >= target)) {
      return k == 0 ? 0 : (1ULL << k);
    }
  }
  return 1ULL << (kBuckets - 1);
}

std::pair<std::size_t, std::size_t> Log2Histogram::nonempty_range() const {
  std::size_t first = kBuckets;
  std::size_t last = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    if (buckets_[k] != 0) {
      first = std::min(first, k);
      last = std::max(last, k);
    }
  }
  return {first, last};
}

Log2Histogram& Log2Histogram::merge(const Log2Histogram& other) {
  for (std::size_t k = 0; k < kBuckets; ++k) buckets_[k] += other.buckets_[k];
  total_ += other.total_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  return *this;
}

std::string Log2Histogram::to_string() const {
  std::ostringstream out;
  const auto [first, last] = nonempty_range();
  for (std::size_t k = first; k <= last && first < kBuckets; ++k) {
    const std::uint64_t lo = k == 0 ? 0 : (1ULL << k);
    out << "[" << lo << ", ";
    // The top bucket's bound, 2^64, is past the range of uint64_t.
    if (k + 1 < kBuckets) {
      out << (1ULL << (k + 1));
    } else {
      out << "18446744073709551616";
    }
    out << "): " << buckets_[k] << "\n";
  }
  return out.str();
}

LinearHistogram::LinearHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::domain_error("LinearHistogram: zero bins");
  if (!(lo < hi)) throw std::domain_error("LinearHistogram: lo must be < hi");
}

void LinearHistogram::add(double value, std::uint64_t count) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::int64_t>((value - lo_) / width);
  idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += count;
  total_ += count;
}

double LinearHistogram::bin_lo(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double LinearHistogram::bin_hi(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin + 1);
}

}  // namespace pio
