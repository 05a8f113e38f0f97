// Test-only differential oracle: the net::Fabric::send that the pooled
// message record replaced, kept verbatim apart from its name, header-only
// packaging and its channels, which are the closure-per-transfer channels
// of tests/closure_channel_oracle.hpp that sim::FairShareChannel replaced.
// Each stage's callback is a lambda that captures the next stage's state and
// the caller's std::function by value, so a message costs three nested
// closures (and their heap allocations).
// tests/test_fabric_diff.cpp drives it and net::Fabric with identical
// seeded message storms and requires identical deliveries and FabricStats.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "closure_channel_oracle.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace pio::net::oracle {

/// Three-stage fluid fabric between `endpoints` numbered [0, n).
class NestedFabric {
 public:
  NestedFabric(sim::Engine& engine, const FabricConfig& config, std::uint32_t endpoints)
      : engine_(engine), config_(config) {
    if (endpoints == 0) throw std::invalid_argument("Fabric: zero endpoints");
    if (config.core_links <= 0.0) throw std::invalid_argument("Fabric: core_links must be > 0");
    inject_.reserve(endpoints);
    eject_.reserve(endpoints);
    for (std::uint32_t e = 0; e < endpoints; ++e) {
      inject_.push_back(std::make_unique<sim::oracle::ClosureFairShareChannel>(
          engine_, config.endpoint_bandwidth, config.endpoint_latency,
          config.name + ".inject." + std::to_string(e)));
      eject_.push_back(std::make_unique<sim::oracle::ClosureFairShareChannel>(
          engine_, config.endpoint_bandwidth, config.endpoint_latency,
          config.name + ".eject." + std::to_string(e)));
    }
    core_ = std::make_unique<sim::oracle::ClosureFairShareChannel>(
        engine_, config.endpoint_bandwidth * config.core_links, config.core_latency,
        config.name + ".core");
  }

  NestedFabric(const NestedFabric&) = delete;
  NestedFabric& operator=(const NestedFabric&) = delete;

  /// Deliver `size` bytes from `src` to `dst`; `on_delivered` fires when the
  /// last byte leaves the destination's ejection link. Zero-size messages
  /// model latency-only RPCs.
  void send(EndpointId src, EndpointId dst, Bytes size, std::function<void()> on_delivered) {
    if (src >= inject_.size() || dst >= eject_.size()) {
      throw std::out_of_range("Fabric::send: endpoint out of range");
    }
    ++stats_.messages;
    stats_.bytes += size;
    // During a brownout the message occupies factor× its real size on every
    // stage (stats above still record the true payload). The factor is latched
    // at send time so one message sees one consistent weather report.
    Bytes wire = size;
    if (timeline_ != nullptr) {
      const double factor = timeline_->slowdown(fault_id_, engine_.now());
      if (factor != 1.0) {
        ++stats_.degraded_messages;
        wire = Bytes{static_cast<std::uint64_t>(std::ceil(size.as_double() * factor))};
      }
    }
    // Store-and-forward through the three stages. Each stage is itself a
    // fair-shared fluid channel, so concurrent senders contend realistically.
    inject_[src]->transfer(wire, [this, dst, wire, done = std::move(on_delivered)]() mutable {
      core_->transfer(wire, [this, dst, wire, done = std::move(done)]() mutable {
        eject_[dst]->transfer(wire, std::move(done));
      });
    });
  }

  [[nodiscard]] const FabricStats& stats() const { return stats_; }

  void set_fault_timeline(const fault::Timeline* timeline, fault::ComponentId id) {
    timeline_ = timeline;
    fault_id_ = id;
  }

 private:
  sim::Engine& engine_;
  FabricConfig config_;
  std::vector<std::unique_ptr<sim::oracle::ClosureFairShareChannel>> inject_;
  std::vector<std::unique_ptr<sim::oracle::ClosureFairShareChannel>> eject_;
  std::unique_ptr<sim::oracle::ClosureFairShareChannel> core_;
  FabricStats stats_;
  const fault::Timeline* timeline_ = nullptr;
  fault::ComponentId fault_id_{fault::ComponentKind::kComputeFabric, 0};
};

}  // namespace pio::net::oracle
