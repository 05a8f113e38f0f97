#include "net/fabric.hpp"

#include <cmath>
#include <stdexcept>

namespace pio::net {

Fabric::Fabric(sim::Engine& engine, const FabricConfig& config, std::uint32_t endpoints)
    : engine_(engine), config_(config) {
  if (endpoints == 0) throw std::invalid_argument("Fabric: zero endpoints");
  if (config.core_links <= 0.0) throw std::invalid_argument("Fabric: core_links must be > 0");
  inject_.reserve(endpoints);
  eject_.reserve(endpoints);
  for (std::uint32_t e = 0; e < endpoints; ++e) {
    inject_.push_back(std::make_unique<sim::FairShareChannel>(
        engine_, config.endpoint_bandwidth, config.endpoint_latency,
        [this](sim::Handle h) { to_core(h); }, config.name + ".inject." + std::to_string(e)));
    eject_.push_back(std::make_unique<sim::FairShareChannel>(
        engine_, config.endpoint_bandwidth, config.endpoint_latency,
        [this](sim::Handle h) { deliver(h); }, config.name + ".eject." + std::to_string(e)));
  }
  core_ = std::make_unique<sim::FairShareChannel>(
      engine_, config.endpoint_bandwidth * config.core_links, config.core_latency,
      [this](sim::Handle h) { to_eject(h); }, config.name + ".core");
}

void Fabric::send(EndpointId src, EndpointId dst, Bytes size,
                  std::function<void()> on_delivered) {
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
  const sim::Handle h = messages_.acquire();
  Message& msg = messages_[h];
  msg.dst = dst;
  msg.wire = wire;
  msg.on_delivered = std::move(on_delivered);
  inject_[src]->transfer(wire, h);
}

void Fabric::to_core(sim::Handle h) { core_->transfer(messages_[h].wire, h); }

void Fabric::to_eject(sim::Handle h) {
  const Message& msg = messages_[h];
  eject_[msg.dst]->transfer(msg.wire, h);
}

void Fabric::deliver(sim::Handle h) {
  const std::function<void()> done = std::move(messages_[h].on_delivered);
  messages_[h].on_delivered = nullptr;
  messages_.release(h);
  if (done) done();
}

SimTime Fabric::base_latency() const {
  return config_.endpoint_latency * 2 + config_.core_latency;
}

}  // namespace pio::net
