// PIOEval network substrate: a CODES-lite fabric model.
//
// Fig. 1 of the paper has two fabrics: a fast compute interconnect
// (InfiniBand-class) between clients and I/O nodes, and a slower storage
// fabric (10GbE-class) between I/O nodes and the storage cluster. Both are
// instances of this three-stage fluid model: per-endpoint injection link →
// shared (possibly oversubscribed) core → per-endpoint ejection link. The
// model reproduces the first-order phenomena the evaluation tools must see:
// endpoint serialization, core saturation, and latency floors for small ops.
//
// A message is one pooled record (sim/records.hpp) that advances through the
// three stages by handle: each channel hands a drained message's handle to
// the sink the fabric registered for its stage (`to_core`, `to_eject`,
// `deliver`), so a stage builds no callable and a send costs no heap
// allocation in steady state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "sim/records.hpp"
#include "sim/resources.hpp"

namespace pio::net {

using EndpointId = std::uint32_t;

/// Static description of one fabric.
struct FabricConfig {
  Bandwidth endpoint_bandwidth = Bandwidth::from_gib_per_sec(10.0);  ///< NIC rate
  SimTime endpoint_latency = SimTime::from_us(1.0);                  ///< per-hop
  /// Core capacity as a multiple of one endpoint link. A fully provisioned
  /// fat-tree has core_oversubscription == number of endpoints; smaller
  /// values model tapered/oversubscribed networks.
  double core_links = 8.0;
  SimTime core_latency = SimTime::from_us(1.0);
  std::string name = "fabric";
};

/// Per-fabric aggregate counters (one of the "client-side hardware
/// statistics" sources in §IV.A.2).
struct FabricStats {
  std::uint64_t messages = 0;
  Bytes bytes = Bytes::zero();
  std::uint64_t degraded_messages = 0;  ///< sent during a brownout interval
};

/// Three-stage fluid fabric between `endpoints` numbered [0, n).
class Fabric {
 public:
  Fabric(sim::Engine& engine, const FabricConfig& config, std::uint32_t endpoints);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Deliver `size` bytes from `src` to `dst`; `on_delivered` fires when the
  /// last byte leaves the destination's ejection link. Zero-size messages
  /// model latency-only RPCs.
  void send(EndpointId src, EndpointId dst, Bytes size, std::function<void()> on_delivered);

  [[nodiscard]] std::uint32_t endpoints() const { return static_cast<std::uint32_t>(inject_.size()); }
  [[nodiscard]] const FabricStats& stats() const { return stats_; }
  [[nodiscard]] const FabricConfig& config() const { return config_; }
  /// Messages sent and not yet delivered.
  [[nodiscard]] std::size_t messages_in_flight() const { return messages_.live(); }

  /// One-way zero-load latency (three hops); used by models for cost floors.
  [[nodiscard]] SimTime base_latency() const;

  /// Attach the fault timeline (owned by the caller; must outlive the
  /// fabric's use) and this fabric's identity on it. During a brownout
  /// (slowdown factor m > 1) messages occupy m× their size on every stage,
  /// modelling the lost effective bandwidth of a degraded link set.
  void set_fault_timeline(const fault::Timeline* timeline, fault::ComponentId id) {
    timeline_ = timeline;
    fault_id_ = id;
  }

 private:
  /// One message in flight between its send and its delivery.
  struct Message {
    EndpointId dst = 0;
    Bytes wire = Bytes::zero();  ///< size on the wire (inflated in a brownout)
    std::function<void()> on_delivered;
  };

  void to_core(sim::Handle h);
  void to_eject(sim::Handle h);
  void deliver(sim::Handle h);

  sim::Engine& engine_;
  FabricConfig config_;
  std::vector<std::unique_ptr<sim::FairShareChannel>> inject_;
  std::vector<std::unique_ptr<sim::FairShareChannel>> eject_;
  std::unique_ptr<sim::FairShareChannel> core_;
  FabricStats stats_;
  sim::RecordPool<Message> messages_;
  const fault::Timeline* timeline_ = nullptr;
  fault::ComponentId fault_id_{fault::ComponentKind::kComputeFabric, 0};
};

}  // namespace pio::net
