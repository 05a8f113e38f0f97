// PIOEval common: strong scalar types used across the toolkit.
//
// The simulation engine works in integer nanoseconds (`SimTime`) and integer
// bytes (`Bytes`). Keeping these as distinct types (rather than bare int64_t)
// catches unit mix-ups at compile time, which matters in a codebase where
// "rate = bytes / time" conversions appear in every model.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace pio {

/// Simulated time in integer nanoseconds. Signed so durations can be
/// subtracted freely; negative absolute times never occur in a valid run.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }

  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() { return SimTime{std::numeric_limits<std::int64_t>::max()}; }
  static constexpr SimTime from_ns(std::int64_t v) { return SimTime{v}; }
  static constexpr SimTime from_us(double v) { return SimTime{static_cast<std::int64_t>(v * 1e3)}; }
  static constexpr SimTime from_ms(double v) { return SimTime{static_cast<std::int64_t>(v * 1e6)}; }
  static constexpr SimTime from_sec(double v) { return SimTime{static_cast<std::int64_t>(v * 1e9)}; }
  /// Seconds rounded *up* to the next nanosecond. Use when a modelled
  /// duration must never complete early (e.g. draining a transfer).
  static SimTime from_sec_ceil(double v) {
    return SimTime{static_cast<std::int64_t>(std::ceil(v * 1e9))};
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime other) {
    ns_ += other.ns_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime other) {
    ns_ -= other.ns_;
    return *this;
  }
  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.ns_ + b.ns_}; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.ns_ - b.ns_}; }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.ns_ * k}; }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return a * k; }
  friend constexpr std::int64_t operator/(SimTime a, SimTime b) { return a.ns_ / b.ns_; }
  friend constexpr SimTime operator/(SimTime a, std::int64_t k) { return SimTime{a.ns_ / k}; }

 private:
  std::int64_t ns_ = 0;
};

/// Byte count. Unsigned: a size is never negative.
class Bytes {
 public:
  constexpr Bytes() = default;
  constexpr explicit Bytes(std::uint64_t v) : v_(v) {}

  [[nodiscard]] constexpr std::uint64_t count() const { return v_; }
  [[nodiscard]] constexpr double as_double() const { return static_cast<double>(v_); }
  [[nodiscard]] constexpr double kib() const { return as_double() / 1024.0; }
  [[nodiscard]] constexpr double mib() const { return as_double() / (1024.0 * 1024.0); }
  [[nodiscard]] constexpr double gib() const { return as_double() / (1024.0 * 1024.0 * 1024.0); }

  static constexpr Bytes zero() { return Bytes{0}; }
  static constexpr Bytes from_kib(std::uint64_t v) { return Bytes{v * 1024ULL}; }
  static constexpr Bytes from_mib(std::uint64_t v) { return Bytes{v * 1024ULL * 1024ULL}; }
  static constexpr Bytes from_gib(std::uint64_t v) { return Bytes{v * 1024ULL * 1024ULL * 1024ULL}; }

  constexpr auto operator<=>(const Bytes&) const = default;

  constexpr Bytes& operator+=(Bytes other) {
    v_ += other.v_;
    return *this;
  }
  constexpr Bytes& operator-=(Bytes other) {
    if (other.v_ > v_) throw std::underflow_error("Bytes underflow");
    v_ -= other.v_;
    return *this;
  }
  friend constexpr Bytes operator+(Bytes a, Bytes b) { return Bytes{a.v_ + b.v_}; }
  friend Bytes operator-(Bytes a, Bytes b) {
    Bytes r = a;
    r -= b;
    return r;
  }
  friend constexpr Bytes operator*(Bytes a, std::uint64_t k) { return Bytes{a.v_ * k}; }
  friend constexpr Bytes operator*(std::uint64_t k, Bytes a) { return a * k; }
  friend constexpr Bytes operator/(Bytes a, std::uint64_t k) { return Bytes{a.v_ / k}; }
  friend constexpr std::uint64_t operator/(Bytes a, Bytes b) { return a.v_ / b.v_; }
  friend constexpr Bytes operator%(Bytes a, Bytes b) { return Bytes{a.v_ % b.v_}; }

 private:
  std::uint64_t v_ = 0;
};

/// A transfer rate in bytes per second, with exact integer time/size math.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  constexpr explicit Bandwidth(double bytes_per_sec) : bps_(bytes_per_sec) {}

  static constexpr Bandwidth from_mib_per_sec(double v) { return Bandwidth{v * 1024.0 * 1024.0}; }
  static constexpr Bandwidth from_gib_per_sec(double v) {
    return Bandwidth{v * 1024.0 * 1024.0 * 1024.0};
  }

  [[nodiscard]] constexpr double bytes_per_sec() const { return bps_; }
  [[nodiscard]] constexpr double mib_per_sec() const { return bps_ / (1024.0 * 1024.0); }
  [[nodiscard]] constexpr double gib_per_sec() const { return bps_ / (1024.0 * 1024.0 * 1024.0); }
  /// Nanoseconds one byte takes at this rate.
  [[nodiscard]] constexpr double ns_per_byte() const { return 1e9 / bps_; }

  /// Time to move `size` at this rate. Throws if the rate is non-positive.
  [[nodiscard]] SimTime transfer_time(Bytes size) const {
    if (bps_ <= 0.0) throw std::domain_error("Bandwidth::transfer_time on non-positive rate");
    return SimTime::from_sec(size.as_double() / bps_);
  }

  constexpr auto operator<=>(const Bandwidth&) const = default;
  friend constexpr Bandwidth operator/(Bandwidth a, double k) { return Bandwidth{a.bps_ / k}; }
  friend constexpr Bandwidth operator*(Bandwidth a, double k) { return Bandwidth{a.bps_ * k}; }

 private:
  double bps_ = 0.0;
};

/// Observed rate over an interval; the canonical "result" unit of benches.
[[nodiscard]] inline Bandwidth observed_bandwidth(Bytes moved, SimTime elapsed) {
  if (elapsed <= SimTime::zero()) return Bandwidth{0.0};
  return Bandwidth{moved.as_double() / elapsed.sec()};
}

namespace literals {
constexpr SimTime operator""_ns(unsigned long long v) { return SimTime{static_cast<std::int64_t>(v)}; }
constexpr SimTime operator""_us(unsigned long long v) {
  return SimTime{static_cast<std::int64_t>(v) * 1000};
}
constexpr SimTime operator""_ms(unsigned long long v) {
  return SimTime{static_cast<std::int64_t>(v) * 1000 * 1000};
}
constexpr SimTime operator""_s(unsigned long long v) {
  return SimTime{static_cast<std::int64_t>(v) * 1000 * 1000 * 1000};
}
constexpr Bytes operator""_B(unsigned long long v) { return Bytes{v}; }
constexpr Bytes operator""_KiB(unsigned long long v) { return Bytes::from_kib(v); }
constexpr Bytes operator""_MiB(unsigned long long v) { return Bytes::from_mib(v); }
constexpr Bytes operator""_GiB(unsigned long long v) { return Bytes::from_gib(v); }
}  // namespace literals

}  // namespace pio
