#include "sim/resources.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/check.hpp"

namespace pio::sim {

// ---------------------------------------------------------------- FifoServer

FifoServer::FifoServer(Engine& engine, std::function<void(Handle, bool)> on_done,
                       std::string name)
    : engine_(engine), on_done_(std::move(on_done)), name_(std::move(name)) {
  if (!on_done_) throw std::invalid_argument("FifoServer: empty completion sink");
}

void FifoServer::submit(SimTime service_time, Handle token) {
  if (service_time < SimTime::zero()) {
    throw std::invalid_argument("FifoServer::submit: negative service time");
  }
  queue_.push(Job{service_time, engine_.now(), token});
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
  if (!busy_) start_next();
}

void FifoServer::start_next() {
  // CoDel-style head drop: a job whose queueing delay already exceeds the
  // target is not worth serving — by the time it completes the client has
  // timed out and retried, so serving it is pure goodput loss.
  while (!queue_.empty() && shed_target_ > SimTime::zero() &&
         engine_.now() - queue_.front().enqueued > shed_target_) {
    const Job job = queue_.pop();
    const SimTime sojourn = engine_.now() - job.enqueued;
    ++stats_.shed_jobs;
    stats_.sojourn_us.add(static_cast<std::uint64_t>(sojourn.ns() / 1000));
    engine_.schedule_after(SimTime::zero(),
                           [this, token = job.token] { on_done_(token, /*shed=*/true); });
  }
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  const Job job = queue_.pop();
  const SimTime wait = engine_.now() - job.enqueued;
  stats_.total_wait += wait;
  stats_.sojourn_us.add(static_cast<std::uint64_t>(wait.ns() / 1000));
  stats_.busy_time += job.service;
  engine_.schedule_after(job.service, [this, token = job.token] {
    ++stats_.jobs_completed;
    on_done_(token, /*shed=*/false);
    start_next();
  });
}

// --------------------------------------------------------- FairShareChannel

namespace {

constexpr int kFracBits = 32;  // clock units per ns = 2^kFracBits

/// Flow capacity an idle channel keeps (768 B of flows).
constexpr std::size_t kIdleFlowCapacity = 16;

/// Heap order: the earliest (tag, seq) on top.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.tag != b.tag ? a.tag > b.tag : a.seq > b.seq;
};

}  // namespace

FairShareChannel::FairShareChannel(Engine& engine, Bandwidth capacity, SimTime latency,
                                   std::function<void(Handle)> on_drained, std::string name)
    : engine_(engine),
      capacity_(capacity),
      latency_(latency),
      on_drained_(std::move(on_drained)),
      name_(std::move(name)) {
  if (capacity.bytes_per_sec() <= 0.0) {
    throw std::invalid_argument("FairShareChannel: capacity must be positive");
  }
  if (latency < SimTime::zero()) {
    throw std::invalid_argument("FairShareChannel: negative latency");
  }
  if (!on_drained_) throw std::invalid_argument("FairShareChannel: empty drain sink");
  units_per_byte_ = std::ldexp(capacity.ns_per_byte(), kFracBits);
}

void FairShareChannel::transfer(Bytes size, Handle token) {
  if (size == Bytes::zero()) {
    // Latency-only message (e.g. a metadata RPC header).
    engine_.schedule_after(latency_, [this, token] { on_drained_(token); });
    return;
  }
  engine_.schedule_after(latency_, [this, size, token] { admit(size, token); });
}

void FairShareChannel::admit(Bytes size, Handle token) {
  advance_clock();
  // The one size-to-time conversion: full-capacity service in clock units,
  // at least one unit so a tag always lies ahead of the clock.
  const double service = size.as_double() * units_per_byte_;
  const VirtualTime units = service < 0x1p64
                                ? VirtualTime{static_cast<std::uint64_t>(service)}
                                : static_cast<VirtualTime>(service);
  flows_.push_back(Flow{clock_ + std::max(units, VirtualTime{1}), next_seq_++, size, token});
  ++live_;
  std::push_heap(flows_.begin(), flows_.end(), kLater);
  reschedule_completion();
}

void FairShareChannel::advance_clock() {
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

void FairShareChannel::reschedule_completion() {
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

void FairShareChannel::complete_due() {
  advance_clock();
  // Park every flow whose tag has been reached in the vector's tail, then
  // release them in admission order. Admissions arrive only through engine
  // events, so the sink calls below cannot grow the heap under the tail.
  while (live_ > 0 && flows_.front().tag <= clock_) {
    std::pop_heap(flows_.begin(), flows_.begin() + static_cast<std::ptrdiff_t>(live_), kLater);
    --live_;
  }
  const auto drained = flows_.begin() + static_cast<std::ptrdiff_t>(live_);
  if (flows_.end() - drained > 1) {
    std::sort(drained, flows_.end(), [](const Flow& a, const Flow& b) { return a.seq < b.seq; });
  }
  for (auto it = drained; it != flows_.end(); ++it) bytes_moved_ += it->size;
  if (live_ == 0) clock_ = 0;  // idle: restart virtual time from zero
  reschedule_completion();
  for (std::size_t i = live_; i < flows_.size(); ++i) on_drained_(flows_[i].token);
  // Most admissions land on an idle channel, so an idle channel keeps a
  // small vector; the storage of a rare deep busy period is given back.
  if (live_ == 0 && flows_.capacity() > kIdleFlowCapacity) {
    flows_ = std::vector<Flow>{};
    flows_.reserve(kIdleFlowCapacity);
  } else {
    flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(live_), flows_.end());
  }
}

// ------------------------------------------------------------------ TokenPool

TokenPool::TokenPool(std::uint64_t tokens, std::function<void(Handle)> on_grant)
    : capacity_(tokens), available_(tokens), on_grant_(std::move(on_grant)) {
  if (tokens == 0) throw std::invalid_argument("TokenPool: zero capacity");
  if (!on_grant_) throw std::invalid_argument("TokenPool: empty grant sink");
}

void TokenPool::acquire(std::uint64_t n, Handle token) {
  if (n == 0 || n > capacity_) throw std::invalid_argument("TokenPool::acquire: bad count");
  queue_.push(Waiter{n, token});
  drain();
}

void TokenPool::release(std::uint64_t n) {
  // Check before mutating: a refused release leaves the pool as it was.
  if (n > capacity_ - available_) throw std::logic_error("TokenPool::release: over-release");
  available_ += n;
  drain();
}

void TokenPool::drain() {
  // FIFO: strictly grant in arrival order; a large request at the head
  // blocks later small ones (no starvation). The sink may re-enter
  // acquire() or release(); the waiter is off the ring by then.
  while (!queue_.empty() && queue_.front().n <= available_) {
    const Waiter waiter = queue_.pop();
    available_ -= waiter.n;
    on_grant_(waiter.token);
  }
}

}  // namespace pio::sim
