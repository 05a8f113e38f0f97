// Test-only differential oracle: the FIFO server and token pool that kept
// one std::function per job and per waiter, which the token-sink
// sim::FifoServer and sim::TokenPool replaced. Kept verbatim apart from
// their names, header-only packaging and the handle FIFO, now a
// sim::Ring<Handle>. Each job carries its own completion callback and an
// optional shed callback (a job without one is never shed); each waiter
// carries its own grant callback.
// tests/test_queue_diff.cpp drives them and the token primitives with
// identical seeded storms and requires identical completions, grant order,
// statistics and engine event counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/records.hpp"
#include "sim/resources.hpp"

namespace pio::sim::oracle {

/// Single-server FIFO queue. Service time is supplied per job so callers can
/// model state-dependent costs (e.g. disk seek depends on previous offset).
class ClosureFifoServer {
 public:
  explicit ClosureFifoServer(Engine& engine, std::string name = "fifo")
      : engine_(engine), name_(std::move(name)) {}

  /// Enqueue a job; `on_done` fires when its service completes.
  void submit(SimTime service_time, std::function<void()> on_done) {
    submit(service_time, std::move(on_done), nullptr);
  }

  /// Enqueue a sheddable job: if a shed target is set and the job's queueing
  /// delay exceeds it when the job reaches the head, the job is dropped
  /// without service and `on_shed` fires (next delta) instead of `on_done`.
  /// Jobs submitted without an `on_shed` are never shed.
  void submit(SimTime service_time, std::function<void()> on_done,
              std::function<void()> on_shed) {
    if (service_time < SimTime::zero()) {
      throw std::invalid_argument("FifoServer::submit: negative service time");
    }
    const Handle h = jobs_.acquire();
    Job& job = jobs_[h];
    job.service = service_time;
    job.enqueued = engine_.now();
    job.on_done = std::move(on_done);
    job.on_shed = std::move(on_shed);
    queue_.push(h);
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
    if (!busy_) start_next();
  }

  /// CoDel-style sojourn bound for sheddable jobs; zero (default) disables.
  void set_shed_target(SimTime target) { shed_target_ = target; }

  [[nodiscard]] std::uint64_t queue_depth() const { return queue_.size() + (busy_ ? 1u : 0u); }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Job {
    SimTime service;
    SimTime enqueued;
    std::function<void()> on_done;
    std::function<void()> on_shed;
  };

  /// Release job `h` and return the callback it was holding.
  std::function<void()> retire(Handle h, bool shed) {
    Job& job = jobs_[h];
    std::function<void()> notify = std::move(shed ? job.on_shed : job.on_done);
    job.on_done = nullptr;
    job.on_shed = nullptr;
    jobs_.release(h);
    return notify;
  }

  void start_next() {
    // CoDel-style head drop: a sheddable job whose queueing delay already
    // exceeds the target is not worth serving — by the time it completes the
    // client has timed out and retried, so serving it is pure goodput loss.
    while (!queue_.empty() && shed_target_ > SimTime::zero() && jobs_[queue_.front()].on_shed &&
           engine_.now() - jobs_[queue_.front()].enqueued > shed_target_) {
      const Handle h = queue_.pop();
      const SimTime sojourn = engine_.now() - jobs_[h].enqueued;
      ++stats_.shed_jobs;
      stats_.sojourn_us.add(static_cast<std::uint64_t>(sojourn.ns() / 1000));
      engine_.schedule_after(SimTime::zero(), [this, h] {
        const std::function<void()> notify = retire(h, /*shed=*/true);
        if (notify) notify();
      });
    }
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    const Handle h = queue_.pop();
    const Job& job = jobs_[h];
    const SimTime wait = engine_.now() - job.enqueued;
    stats_.total_wait += wait;
    stats_.sojourn_us.add(static_cast<std::uint64_t>(wait.ns() / 1000));
    stats_.busy_time += job.service;
    engine_.schedule_after(job.service, [this, h] {
      ++stats_.jobs_completed;
      const std::function<void()> done = retire(h, /*shed=*/false);
      if (done) done();
      start_next();
    });
  }

  Engine& engine_;
  std::string name_;
  RecordPool<Job> jobs_;
  Ring<Handle> queue_;  ///< waiting jobs, FIFO
  bool busy_ = false;
  SimTime shed_target_ = SimTime::zero();
  ServerStats stats_;
};

/// Counting semaphore over simulated time: models bounded server concurrency
/// (e.g. an MDS with k service threads). FIFO grant order.
class ClosureTokenPool {
 public:
  ClosureTokenPool(Engine& engine, std::uint64_t tokens, std::string name = "tokens")
      : engine_(engine), capacity_(tokens), available_(tokens), name_(std::move(name)) {
    if (tokens == 0) throw std::invalid_argument("TokenPool: zero capacity");
  }

  /// Request `n` tokens (n <= pool size); `on_grant` fires when granted —
  /// immediately (same event) if available.
  void acquire(std::uint64_t n, std::function<void()> on_grant) {
    if (n == 0 || n > capacity_) throw std::invalid_argument("TokenPool::acquire: bad count");
    const Handle h = waiters_.acquire();
    waiters_[h].n = n;
    waiters_[h].on_grant = std::move(on_grant);
    queue_.push(h);
    drain();
  }

  /// Return `n` tokens, possibly granting queued waiters.
  void release(std::uint64_t n) {
    // Check before mutating: a refused release leaves the pool as it was.
    if (n > capacity_ - available_) throw std::logic_error("TokenPool::release: over-release");
    available_ += n;
    drain();
  }

  [[nodiscard]] std::uint64_t available() const { return available_; }
  [[nodiscard]] std::uint64_t waiters() const { return queue_.size(); }

 private:
  struct Waiter {
    std::uint64_t n;
    std::function<void()> on_grant;
  };

  void drain() {
    // FIFO: strictly grant in arrival order; a large request at the head
    // blocks later small ones (no starvation).
    while (!queue_.empty() && waiters_[queue_.front()].n <= available_) {
      const Handle h = queue_.pop();
      available_ -= waiters_[h].n;
      const std::function<void()> grant = std::move(waiters_[h].on_grant);
      waiters_.release(h);
      if (grant) grant();
    }
  }

  Engine& engine_;
  std::uint64_t capacity_;
  std::uint64_t available_;
  std::string name_;
  RecordPool<Waiter> waiters_;
  Ring<Handle> queue_;  ///< waiting requests, FIFO
};

}  // namespace pio::sim::oracle
