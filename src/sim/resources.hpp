// PIOEval simulation substrate: queueing building blocks.
//
// Three primitives cover every server in the storage/network models:
//  - FifoServer: a single server with explicit service times (disks, MDS ops)
//  - FairShareChannel: a fluid processor-sharing link (network fabrics)
//  - TokenPool: counting semaphore in simulated time (server thread limits)
//
// All three take one sink at construction, and each job, flow or waiter
// carries its owner's 32-bit token, not a callable (DESIGN.md §16): queued
// entries are plain values, so a steady-state run allocates nothing per job.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/histogram.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/records.hpp"

namespace pio::sim {

/// Aggregate occupancy statistics shared by the queueing primitives.
struct ServerStats {
  std::uint64_t jobs_completed = 0;
  SimTime busy_time = SimTime::zero();   ///< time with >= 1 job in service
  SimTime total_wait = SimTime::zero();  ///< queueing delay, excludes service
  std::uint64_t max_queue_depth = 0;
  std::uint64_t shed_jobs = 0;  ///< jobs dropped at dequeue (sojourn > target)
  /// Queueing-delay distribution in microseconds, recorded at dequeue for
  /// served and shed jobs alike (the CoDel view of the queue).
  Log2Histogram sojourn_us;

  [[nodiscard]] SimTime mean_wait() const {
    return jobs_completed == 0 ? SimTime::zero()
                               : total_wait / static_cast<std::int64_t>(jobs_completed);
  }
  [[nodiscard]] double utilization(SimTime horizon) const {
    return horizon <= SimTime::zero() ? 0.0 : busy_time.sec() / horizon.sec();
  }
};

/// Single-server FIFO queue. Service time is supplied per job so callers can
/// model state-dependent costs (e.g. disk seek depends on previous offset).
class FifoServer {
 public:
  /// `on_done(token, shed)` receives each job's token once: when its service
  /// completes (shed = false) or when it is shed at dequeue (shed = true).
  FifoServer(Engine& engine, std::function<void(Handle token, bool shed)> on_done,
             std::string name = "fifo");

  /// Enqueue a job of `service_time` for `token`.
  void submit(SimTime service_time, Handle token);

  /// CoDel-style sojourn bound; zero (default) disables. A job whose queueing
  /// delay exceeds it at the head is dropped without service, and its token
  /// reaches the sink (next delta) with shed = true.
  void set_shed_target(SimTime target) { shed_target_ = target; }

  [[nodiscard]] std::uint64_t queue_depth() const { return queue_.size() + (busy_ ? 1u : 0u); }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Job {
    SimTime service;
    SimTime enqueued;
    Handle token;  ///< handed to on_done_
  };
  static_assert(std::is_trivially_copyable_v<Job>, "jobs queue by value");

  void start_next();

  Engine& engine_;
  std::function<void(Handle, bool)> on_done_;
  std::string name_;
  Ring<Job> queue_;  ///< waiting jobs, FIFO
  bool busy_ = false;
  SimTime shed_target_ = SimTime::zero();
  ServerStats stats_;
};

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
///
/// The channel is an engine Actor: transfers in their latency wait in a FIFO
/// lane (the latency is constant), the next completion is one (time, seq)
/// pair, and the engine holds one key for the earlier of the two. Each is an
/// engine event with the (time, seq) it would have as a Task, but costs no
/// closure, slot or cancel. The engine must outlive the channel.
class FairShareChannel final : public Actor {
 public:
  /// Virtual time in units of 2^-32 ns of full-capacity service. 64 bits
  /// would overflow after a busy period of ~4.3 s.
  __extension__ typedef unsigned __int128 VirtualTime;

  /// `on_drained` receives each transfer's token when its last byte drains.
  FairShareChannel(Engine& engine, Bandwidth capacity, SimTime latency,
                   std::function<void(Handle)> on_drained, std::string name = "link");
  /// Disarms the channel: its pending transfers are dropped unfired.
  ~FairShareChannel();

  /// Start a transfer of `size` for `token`. A zero-size transfer only
  /// models latency: its token reaches the sink after exactly the latency,
  /// in one engine event.
  void transfer(Bytes size, Handle token);

  [[nodiscard]] std::size_t active_flows() const { return live_; }
  [[nodiscard]] Bytes bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bandwidth capacity() const { return capacity_; }
  /// The virtual clock; zero whenever the channel is idle.
  [[nodiscard]] VirtualTime virtual_clock() const { return clock_; }

 private:
  struct Flow {
    VirtualTime tag;     ///< clock value at which the flow has drained
    std::uint64_t seq;   ///< admission order, breaks tag ties
    Bytes size;
    Handle token;        ///< handed to on_drained_
  };
  static_assert(std::is_trivially_copyable_v<Flow>, "heap sifts copy flows as raw bytes");

  /// A transfer in its latency: an engine event at (at, seq).
  struct Arrival {
    SimTime at;
    std::uint64_t seq;
    Bytes size;
    Handle token;
  };
  static_assert(std::is_trivially_copyable_v<Arrival>, "arrivals queue by value");

  void fire() override;
  [[nodiscard]] std::uint64_t pending_events() const override {
    return lane_.size() + (live_ > 0 ? 1u : 0u);
  }
  /// Whether the completion, pending while live_ > 0, precedes the event
  /// (at, seq).
  [[nodiscard]] bool completion_first(SimTime at, std::uint64_t seq) const {
    return completion_at_ != at ? completion_at_ < at : completion_seq_ < seq;
  }
  /// Whether the channel's next event is its completion, not a lane arrival.
  [[nodiscard]] bool completion_next() const {
    return live_ > 0 && (lane_.empty() || completion_first(lane_.front().at, lane_.front().seq));
  }
  /// Key the channel on the earlier of its lane head and its completion.
  void rekey();
  void admit(Bytes size, Handle token);
  void advance_clock();
  void reschedule_completion();
  void complete_due();

  Engine& engine_;
  Bandwidth capacity_;
  SimTime latency_;
  std::function<void(Handle)> on_drained_;
  std::string name_;
  double units_per_byte_;  ///< full-capacity service per byte, in clock units
  /// [0, live_) is the heap; while completions run, the drained flows are
  /// parked in the tail [live_, size()).
  std::vector<Flow> flows_;
  std::size_t live_ = 0;
  VirtualTime clock_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime last_advance_ = SimTime::zero();
  /// The next completion's event key; pending exactly while live_ > 0.
  SimTime completion_at_ = SimTime::zero();
  std::uint64_t completion_seq_ = 0;
  Ring<Arrival> lane_;  ///< transfers in their latency, in (at, seq) order
  Bytes bytes_moved_ = Bytes::zero();
};

/// Counting semaphore over simulated time: models bounded server concurrency
/// (e.g. an MDS with k service threads). FIFO grant order.
class TokenPool {
 public:
  /// `on_grant` receives each request's token when its tokens are granted.
  TokenPool(std::uint64_t tokens, std::function<void(Handle)> on_grant);

  /// Request `n` tokens (n <= pool size) for `token`; the grant reaches the
  /// sink immediately (same event) if they are available.
  void acquire(std::uint64_t n, Handle token);

  /// Return `n` tokens, possibly granting queued waiters.
  void release(std::uint64_t n);

  [[nodiscard]] std::uint64_t available() const { return available_; }
  [[nodiscard]] std::uint64_t waiters() const { return queue_.size(); }

 private:
  struct Waiter {
    std::uint64_t n;
    Handle token;  ///< handed to on_grant_
  };
  static_assert(std::is_trivially_copyable_v<Waiter>, "waiters queue by value");

  void drain();

  std::uint64_t capacity_;
  std::uint64_t available_;
  std::function<void(Handle)> on_grant_;
  Ring<Waiter> queue_;  ///< waiting requests, FIFO
};

}  // namespace pio::sim
