// Test-only differential oracle: the list-scanning fair-share channel that
// sim::FairShareChannel replaced, kept verbatim apart from its name and
// header-only packaging. On every admit and completion it advances each
// flow's remaining bytes in double precision and rescans for the minimum
// (O(flows) per event), and it releases a flow with less than 0.5 byte left.
// tests/test_channel_diff.cpp drives it and the virtual-time channel with
// identical flow storms and bounds how far their completion times may part.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"

namespace pio::sim::oracle {

/// Fluid-model fair-sharing channel: `n` concurrent flows each progress at
/// capacity/n. On every membership change the remaining volumes are advanced
/// and the next completion re-scheduled. Propagation latency is applied once
/// at flow admission.
class ListFairShareChannel {
 public:
  ListFairShareChannel(Engine& engine, Bandwidth capacity, SimTime latency,
                       std::string name = "link")
      : engine_(engine), capacity_(capacity), latency_(latency), name_(std::move(name)) {
    if (capacity.bytes_per_sec() <= 0.0) {
      throw std::invalid_argument("FairShareChannel: capacity must be positive");
    }
    if (latency < SimTime::zero()) {
      throw std::invalid_argument("FairShareChannel: negative latency");
    }
  }

  /// Start a transfer of `size`; `on_done` fires when the last byte drains.
  void transfer(Bytes size, std::function<void()> on_done) {
    if (size == Bytes::zero()) {
      // Latency-only message (e.g. a metadata RPC header).
      engine_.schedule_after(latency_, std::move(on_done));
      return;
    }
    engine_.schedule_after(latency_, [this, size, done = std::move(on_done)]() mutable {
      admit(size, std::move(done));
    });
  }

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }
  [[nodiscard]] Bytes bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bandwidth capacity() const { return capacity_; }

 private:
  struct Flow {
    double remaining_bytes;
    Bytes size;
    std::function<void()> on_done;
  };

  void admit(Bytes size, std::function<void()> on_done) {
    advance_progress();
    flows_.push_back(Flow{size.as_double(), size, std::move(on_done)});
    reschedule_completion();
  }

  void advance_progress() {
    const SimTime now = engine_.now();
    if (!flows_.empty() && now > last_progress_) {
      const double rate = capacity_.bytes_per_sec() / static_cast<double>(flows_.size());
      const double progressed = rate * (now - last_progress_).sec();
      for (auto& flow : flows_) {
        flow.remaining_bytes = std::max(0.0, flow.remaining_bytes - progressed);
      }
    }
    last_progress_ = now;
  }

  void reschedule_completion() {
    if (pending_completion_ != 0) {
      engine_.cancel(pending_completion_);
      pending_completion_ = 0;
    }
    if (flows_.empty()) return;
    double min_remaining = std::numeric_limits<double>::max();
    for (const auto& flow : flows_) min_remaining = std::min(min_remaining, flow.remaining_bytes);
    const double rate = capacity_.bytes_per_sec() / static_cast<double>(flows_.size());
    // Round up to the next nanosecond so remaining bytes are always fully
    // drained by the time the completion fires.
    const auto delay = SimTime::from_sec_ceil(min_remaining / rate);
    check::that(delay >= SimTime::zero(), "non-negative service delay",
                "delay=" + std::to_string(delay.ns()) + "ns");
    pending_completion_ = engine_.schedule_after(delay, [this] {
      pending_completion_ = 0;
      complete_earliest();
    });
  }

  void complete_earliest() {
    advance_progress();
    // Complete every flow that has drained (ties complete together, in
    // admission order for determinism).
    std::vector<std::function<void()>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->remaining_bytes <= 0.5) {  // < 1 byte left: drained
        bytes_moved_ += it->size;
        done.push_back(std::move(it->on_done));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    reschedule_completion();
    for (auto& fn : done) {
      if (fn) fn();
    }
  }

  Engine& engine_;
  Bandwidth capacity_;
  SimTime latency_;
  std::string name_;
  std::list<Flow> flows_;
  SimTime last_progress_ = SimTime::zero();
  EventId pending_completion_ = 0;
  Bytes bytes_moved_ = Bytes::zero();
};

}  // namespace pio::sim::oracle
