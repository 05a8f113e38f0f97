// PIOEval storage substrate: burst-buffer tier.
//
// Fig. 1: "I/O nodes ... potentially integrate a tier of solid-state devices
// to absorb the burst of random or high volume operations, so that transfers
// to/from the staging area from/to the traditional parallel file system can
// be done more efficiently." This model absorbs writes at SSD speed into a
// bounded staging area and drains them asynchronously at a configured drain
// bandwidth; reads are served from the buffer while resident. Experiment C9
// sweeps placement (node-local vs shared) by instantiating one buffer per
// I/O node vs one shared buffer.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/interval_set.hpp"
#include "common/types.hpp"
#include "pfs/disk.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"

namespace pio::pfs {

struct BurstBufferConfig {
  Bytes capacity = Bytes::from_gib(16);
  SsdConfig device{};
  /// Sustained bandwidth at which staged data drains to the backing PFS.
  Bandwidth drain_bandwidth = Bandwidth::from_mib_per_sec(500.0);
  /// Delay before a freshly staged extent becomes eligible to drain; larger
  /// values model lazy write-back.
  SimTime drain_delay = SimTime::from_ms(10.0);
};

struct BurstBufferStats {
  Bytes absorbed = Bytes::zero();     ///< writes accepted into the buffer
  Bytes bypassed = Bytes::zero();     ///< writes that fell through (full)
  Bytes drained = Bytes::zero();      ///< bytes flushed to the backing store
  Bytes read_hits = Bytes::zero();
  Bytes read_misses = Bytes::zero();
  std::uint64_t peak_occupancy = 0;   ///< bytes
};

/// Write-back staging tier in front of a backing store.
class BurstBuffer {
 public:
  /// `backing_write(file, offset, size, on_done)` performs the drain I/O on
  /// the backing store (supplied by the PFS facade, so the drain path shares
  /// the storage fabric and OST queues with foreground traffic).
  using BackingWrite =
      std::function<void(std::uint64_t file, std::uint64_t offset, Bytes size,
                         std::function<void()> on_done)>;

  BurstBuffer(sim::Engine& engine, const BurstBufferConfig& config, BackingWrite backing_write,
              std::string name = "bb");

  BurstBuffer(const BurstBuffer&) = delete;
  BurstBuffer& operator=(const BurstBuffer&) = delete;

  /// True iff a write of `size` fits in the remaining staging space.
  [[nodiscard]] bool can_absorb(Bytes size) const;

  /// Record a bypassed write in the stats (caller chose write-through).
  void note_bypass(Bytes size) { stats_.bypassed += size; }

  /// Absorb a write; `on_absorbed` fires when the SSD has it (write-back
  /// semantics — the drain to the backing store continues asynchronously).
  /// Precondition: can_absorb(size).
  void write(std::uint64_t file, std::uint64_t offset, Bytes size,
             std::function<void()> on_absorbed);

  /// True iff [offset, offset+size) of `file` is fully staged.
  [[nodiscard]] bool resident(std::uint64_t file, std::uint64_t offset, Bytes size) const;

  /// Record a read miss in the stats (caller went to the backing store).
  void note_miss(Bytes size) { stats_.read_misses += size; }

  /// Serve a read from the staged copy. Precondition: resident(...).
  void read(std::uint64_t file, std::uint64_t offset, Bytes size,
            std::function<void()> on_done);

  /// Bytes currently staged (absorbed but not yet drained).
  [[nodiscard]] Bytes occupancy() const { return occupancy_; }
  [[nodiscard]] const BurstBufferStats& stats() const { return stats_; }
  /// True when no drain is pending or in flight.
  [[nodiscard]] bool quiescent() const { return !drain_active_ && drain_queue_.empty(); }

 private:
  struct StagedExtent {
    std::uint64_t file;
    std::uint64_t offset;
    Bytes size;
  };

  struct SsdOp {  ///< an SSD op, from its submit to the queue's sink
    StagedExtent extent;
    bool is_write;
    std::function<void()> done;
  };
  void ssd_submit(StagedExtent extent, bool is_write, std::function<void()> done);
  /// The SSD queue's sink. With no shed target, ops complete in submit order.
  void ssd_done(sim::Handle token);
  void schedule_drain();
  void drain_next();

  sim::Engine& engine_;
  BurstBufferConfig config_;
  BackingWrite backing_write_;
  std::string name_;
  SsdModel device_;
  sim::FifoServer ssd_queue_;
  std::deque<SsdOp> ssd_ops_;  ///< submitted, not yet completed, in order
  sim::Handle next_ssd_token_ = 0;  ///< running sequence number
  Bytes occupancy_ = Bytes::zero();
  std::unordered_map<std::uint64_t, IntervalSet> resident_;  // file -> ranges
  std::deque<StagedExtent> drain_queue_;
  bool drain_active_ = false;
  BurstBufferStats stats_;
};

}  // namespace pio::pfs
