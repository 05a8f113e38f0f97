#include "pfs/burst_buffer.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/check.hpp"

namespace pio::pfs {

BurstBuffer::BurstBuffer(sim::Engine& engine, const BurstBufferConfig& config,
                         BackingWrite backing_write, std::string name)
    : engine_(engine),
      config_(config),
      backing_write_(std::move(backing_write)),
      name_(std::move(name)),
      device_(config.device),
      ssd_queue_(engine, [this](sim::Handle token, bool /*shed*/) { ssd_done(token); },
                 name_ + ".ssd") {
  if (!backing_write_) throw std::invalid_argument("BurstBuffer: null backing_write");
  if (config.capacity == Bytes::zero()) throw std::invalid_argument("BurstBuffer: zero capacity");
}

bool BurstBuffer::can_absorb(Bytes size) const {
  return occupancy_ + size <= config_.capacity;
}

void BurstBuffer::write(std::uint64_t file, std::uint64_t offset, Bytes size,
                        std::function<void()> on_absorbed) {
  if (!can_absorb(size)) throw std::logic_error("BurstBuffer::write: over capacity");
  occupancy_ += size;
  stats_.absorbed += size;
  stats_.peak_occupancy = std::max(stats_.peak_occupancy, occupancy_.count());
  resident_[file].insert(offset, offset + size.count());
  ssd_submit({file, offset, size}, /*is_write=*/true, std::move(on_absorbed));
}

bool BurstBuffer::resident(std::uint64_t file, std::uint64_t offset, Bytes size) const {
  const auto it = resident_.find(file);
  return it != resident_.end() && it->second.contains(offset, offset + size.count());
}

void BurstBuffer::read(std::uint64_t file, std::uint64_t offset, Bytes size,
                       std::function<void()> on_done) {
  if (!resident(file, offset, size)) throw std::logic_error("BurstBuffer::read: not resident");
  stats_.read_hits += size;
  ssd_submit({file, offset, size}, /*is_write=*/false, std::move(on_done));
}

void BurstBuffer::ssd_submit(StagedExtent extent, bool is_write, std::function<void()> done) {
  ssd_ops_.push_back(SsdOp{extent, is_write, std::move(done)});
  ssd_queue_.submit(device_.service_time(DiskRequest{extent.offset, extent.size, is_write}),
                    next_ssd_token_++);
}

void BurstBuffer::ssd_done(sim::Handle token) {
  sim::check::that(token == static_cast<sim::Handle>(next_ssd_token_ - ssd_ops_.size()),
                   "burst-buffer SSD ops complete in submit order");
  SsdOp op = std::move(ssd_ops_.front());
  ssd_ops_.pop_front();
  if (op.is_write) {
    drain_queue_.push_back(op.extent);
    schedule_drain();
  }
  if (op.done) op.done();
}

void BurstBuffer::schedule_drain() {
  if (drain_active_ || drain_queue_.empty()) return;
  drain_active_ = true;
  engine_.schedule_after(config_.drain_delay, [this] { drain_next(); });
}

void BurstBuffer::drain_next() {
  if (drain_queue_.empty()) {
    drain_active_ = false;
    return;
  }
  const StagedExtent extent = drain_queue_.front();
  drain_queue_.pop_front();
  // Pace the drain at the configured bandwidth, then hand the extent to the
  // backing store (which adds its own fabric/OST costs).
  const SimTime pace = config_.drain_bandwidth.transfer_time(extent.size);
  engine_.schedule_after(pace, [this, extent] {
    backing_write_(extent.file, extent.offset, extent.size, [this, extent] {
      stats_.drained += extent.size;
      occupancy_ -= extent.size;
      // Once the backing store has it, the staged copy is dropped; later
      // reads of the range go to the PFS.
      const auto it = resident_.find(extent.file);
      if (it != resident_.end()) {
        it->second.erase(extent.offset, extent.offset + extent.size.count());
        if (it->second.empty()) resident_.erase(it);
      }
      drain_next();
    });
  });
}

}  // namespace pio::pfs
