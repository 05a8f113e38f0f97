// Test-only differential oracle: the virtual-time fair-share channel that
// took one std::function per transfer, which the token-sink
// sim::FairShareChannel replaced. Kept verbatim apart from its name and
// header-only packaging. Each flow carries its own callback through the
// latency closure and the flow heap.
// tests/test_channel_diff.cpp drives it and the token channel with
// identical flow storms and requires identical completions, release order,
// virtual clocks and engine event counts; tests/fabric_oracle.hpp builds
// the fabric it replaced on top of it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"

namespace pio::sim::oracle {

/// Fluid-model fair-sharing channel: `n` concurrent flows each progress at
/// capacity/n (processor sharing, the standard approximation of CODES-class
/// network models). Propagation latency is applied once at flow admission.
///
/// Implemented with GPS virtual time (DESIGN.md §6): one virtual clock
/// advances by elapsed ns / n, and each flow carries a finish tag — the clock
/// at admission plus its service time at full capacity. Flows sit in a binary
/// min-heap on (tag, admission seq), so an admission or a completion costs
/// O(log n). The clock is integer fixed point, so completion times are exact
/// integers; every flow whose tag has been reached is released together, in
/// admission order.
class ClosureFairShareChannel {
 public:
  /// Virtual time in units of 2^-32 ns of full-capacity service. 64 bits
  /// would overflow after a busy period of ~4.3 s.
  __extension__ typedef unsigned __int128 VirtualTime;

  ClosureFairShareChannel(Engine& engine, Bandwidth capacity, SimTime latency,
                          std::string name = "link")
      : engine_(engine), capacity_(capacity), latency_(latency), name_(std::move(name)) {
    if (capacity.bytes_per_sec() <= 0.0) {
      throw std::invalid_argument("FairShareChannel: capacity must be positive");
    }
    if (latency < SimTime::zero()) {
      throw std::invalid_argument("FairShareChannel: negative latency");
    }
    units_per_byte_ = std::ldexp(capacity.ns_per_byte(), kFracBits);
  }

  /// Start a transfer of `size`; `on_done` fires when the last byte drains.
  /// `on_done` may be empty, at any size: a sized transfer then still takes
  /// its share of the channel and counts in bytes_moved(), and a zero-size
  /// one, which only models latency, has no effect and schedules no event.
  void transfer(Bytes size, std::function<void()> on_done) {
    if (size == Bytes::zero()) {
      // Latency-only message (e.g. a metadata RPC header); without a callback
      // there is nothing to deliver.
      if (on_done) engine_.schedule_after(latency_, std::move(on_done));
      return;
    }
    engine_.schedule_after(latency_, [this, size, done = std::move(on_done)]() mutable {
      admit(size, std::move(done));
    });
  }

  [[nodiscard]] std::size_t active_flows() const { return live_; }
  [[nodiscard]] Bytes bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bandwidth capacity() const { return capacity_; }
  /// The virtual clock; zero whenever the channel is idle.
  [[nodiscard]] VirtualTime virtual_clock() const { return clock_; }

 private:
  static constexpr int kFracBits = 32;  // clock units per ns = 2^kFracBits

  /// Flow capacity an idle channel keeps (1 KiB of flows).
  static constexpr std::size_t kIdleFlowCapacity = 16;

  struct Flow {
    VirtualTime tag;     ///< clock value at which the flow has drained
    std::uint64_t seq;   ///< admission order, breaks tag ties
    Bytes size;
    std::function<void()> on_done;
  };

  /// Heap order: the earliest (tag, seq) on top.
  static bool later(const Flow& a, const Flow& b) {
    return a.tag != b.tag ? a.tag > b.tag : a.seq > b.seq;
  }

  void admit(Bytes size, std::function<void()> on_done) {
    advance_clock();
    // The one size-to-time conversion: full-capacity service in clock units,
    // at least one unit so a tag always lies ahead of the clock.
    const double service = size.as_double() * units_per_byte_;
    const VirtualTime units = service < 0x1p64
                                  ? VirtualTime{static_cast<std::uint64_t>(service)}
                                  : static_cast<VirtualTime>(service);
    flows_.push_back(Flow{clock_ + std::max(units, VirtualTime{1}), next_seq_++, size,
                          std::move(on_done)});
    ++live_;
    std::push_heap(flows_.begin(), flows_.end(), later);
    reschedule_completion();
  }

  void advance_clock() {
    const SimTime now = engine_.now();
    if (live_ > 0 && now > last_advance_) {
      const auto elapsed = static_cast<std::uint64_t>((now - last_advance_).ns());
      // 64-bit fast path; the 128-bit divide only for gaps of 2^32 ns or more.
      clock_ += elapsed < (std::uint64_t{1} << kFracBits)
                    ? VirtualTime{(elapsed << kFracBits) / live_}
                    : (VirtualTime{elapsed} << kFracBits) / live_;
    }
    last_advance_ = now;
  }

  void reschedule_completion() {
    if (pending_completion_ != 0) {
      engine_.cancel(pending_completion_);
      pending_completion_ = 0;
    }
    if (live_ == 0) return;
    // Round up to the next nanosecond: by then the clock has reached the tag.
    // (An admission in the same nanosecond as a due completion can find the
    // top tag already reached; the completion then fires at once.)
    const VirtualTime tag = flows_.front().tag;
    const VirtualTime ahead = tag > clock_ ? tag - clock_ : 0;
    const VirtualTime delay_ns =
        (ahead * live_ + ((VirtualTime{1} << kFracBits) - 1)) >> kFracBits;
    check::that(delay_ns <= static_cast<VirtualTime>(SimTime::max().ns()),
                "completion delay fits SimTime");
    pending_completion_ =
        engine_.schedule_after(SimTime::from_ns(static_cast<std::int64_t>(delay_ns)), [this] {
          pending_completion_ = 0;
          complete_due();
        });
  }

  void complete_due() {
    advance_clock();
    // Park every flow whose tag has been reached in the vector's tail, then
    // release them in admission order. Admissions arrive only through engine
    // events, so the callbacks below cannot grow the heap under the tail.
    while (live_ > 0 && flows_.front().tag <= clock_) {
      std::pop_heap(flows_.begin(), flows_.begin() + static_cast<std::ptrdiff_t>(live_), later);
      --live_;
    }
    const auto drained = flows_.begin() + static_cast<std::ptrdiff_t>(live_);
    if (flows_.end() - drained > 1) {
      std::sort(drained, flows_.end(), [](const Flow& a, const Flow& b) { return a.seq < b.seq; });
    }
    for (auto it = drained; it != flows_.end(); ++it) bytes_moved_ += it->size;
    if (live_ == 0) clock_ = 0;  // idle: restart virtual time from zero
    reschedule_completion();
    for (std::size_t i = live_; i < flows_.size(); ++i) {
      if (flows_[i].on_done) flows_[i].on_done();
    }
    // Most admissions land on an idle channel, so an idle channel keeps a
    // small vector; the storage of a rare deep busy period is given back.
    if (live_ == 0 && flows_.capacity() > kIdleFlowCapacity) {
      flows_ = std::vector<Flow>{};
      flows_.reserve(kIdleFlowCapacity);
    } else {
      flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(live_), flows_.end());
    }
  }

  Engine& engine_;
  Bandwidth capacity_;
  SimTime latency_;
  std::string name_;
  double units_per_byte_;  ///< full-capacity service per byte, in clock units
  /// [0, live_) is the heap; while completions run, the drained flows are
  /// parked in the tail [live_, size()).
  std::vector<Flow> flows_;
  std::size_t live_ = 0;
  VirtualTime clock_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime last_advance_ = SimTime::zero();
  EventId pending_completion_ = 0;
  Bytes bytes_moved_ = Bytes::zero();
};

}  // namespace pio::sim::oracle
