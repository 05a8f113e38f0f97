// PIOEval simulation substrate: a deterministic discrete-event engine.
//
// This is the ROSS/CODES-shaped foundation of the paper's §IV.C: every
// storage-system simulation (trace-based, execution-driven, synthetic) runs
// on this engine. The engine is deliberately single-threaded and strictly
// deterministic: events at equal timestamps fire in insertion order, and all
// randomness flows through per-purpose `Rng` substreams of one campaign seed,
// so two runs with equal inputs produce byte-identical outputs. Determinism
// is load-bearing for the replay-fidelity and extrapolation experiments.
// (Parallelism composes whole engines: campaign points and facility cells
// each run on their own engine as exec::Pool tasks — DESIGN.md §11, §16.)
//
// Hot-path layout (DESIGN.md §11): an event is one entry of a 4-ary min-heap
// ordered on (time, insertion seq). The entry itself is a 24-byte
// trivially-copyable key, so heap sifts move raw PODs; the callable lives in
// a per-slot side array indexed by the event's slot — small callables
// (<= Task::kInlineBytes after decay) in the Task's inline buffer, oversized
// ones behind a plain heap pointer (task.hpp) — so scheduling an event
// performs no per-event heap allocation in the common case and the callable
// is written (and later moved out) exactly once, never dragged through heap
// reorderings. Cancellation is amortised O(1) through the generation-tagged
// slot array: `cancel` bumps the slot's generation and destroys the callable
// eagerly (its slot is known); the orphaned key is dropped lazily when it
// surfaces at the top — or via compaction once dead keys outnumber live
// ones, which bounds heap growth under schedule-then-cancel churn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/span.hpp"
#include "sim/check.hpp"
#include "sim/task.hpp"

namespace pio::sim {

/// Event handle used to cancel a scheduled event. Cancellation is lazy: the
/// slot is marked dead and the entry skipped when popped. Never zero, so 0
/// can serve as a "no event scheduled" sentinel in models.
using EventId = std::uint64_t;

namespace detail {

/// One queued event: a 24-byte trivially-copyable ordering key. The callable
/// lives in the engine's per-slot side array, not in the entry, so heap
/// sifts move plain PODs (DESIGN.md §11).
struct Entry {
  SimTime time;
  std::uint64_t seq;  // tie-break: insertion order at equal time
  EventId id;
};

/// The engine's total event order.
inline bool earlier(const Entry& a, const Entry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace detail

/// Deterministic discrete-event scheduler.
class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1) : seed_(seed) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule a `void()` callable at absolute time `t` (>= now). Throws on
  /// scheduling into the past — a model bug that must fail loudly, not warp
  /// time. Accepts any callable; an empty std::function is rejected.
  template <typename F>
  EventId schedule_at(SimTime t, F&& fn) {
    if (t < now_) throw std::logic_error("Engine::schedule_at: time is in the past");
    if constexpr (std::is_constructible_v<bool, const std::decay_t<F>&>) {
      if (!fn) throw std::invalid_argument("Engine::schedule_at: empty handler");
    }
    // Capacity first: every mutation after the callable lands in its slot is
    // noexcept, or pending_/live_slots() would diverge from the heap.
    reserve_entry();
    ensure_free_slot();
    const std::uint32_t slot = free_slots_.back();
    // Construct the callable in place; on throw the slot is still free.
    task_at(slot).emplace(std::forward<F>(fn));
    free_slots_.pop_back();  // arm: nothing below throws
    ++pending_;
    if constexpr (check::kEnabled) {
      // Sampled (see Engine::fire): accounting drift persists, so a periodic
      // probe catches it without a per-arm cost on the hot path.
      if ((next_seq_ & 63) == 0 && live_slots() != pending_ + executing_) {
        check::fail("slot/pending agreement", "live/pending diverged on arm");
      }
    }
    const EventId id = (static_cast<EventId>(gens_[slot]) << 32) | slot;
    push_entry(t, id);
    return id;
  }

  /// Schedule `fn` after a non-negative delay from now.
  template <typename F>
  EventId schedule_after(SimTime delay, F&& fn) {
    if (delay < SimTime::zero()) {
      throw std::logic_error("Engine::schedule_after: negative delay");
    }
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled. Amortised O(1). The callable (and anything it captures) is
  /// destroyed immediately — its slot is known — while the orphaned 24-byte
  /// heap key is dropped lazily when it surfaces at the top, or via
  /// compaction once dead keys outnumber live ones, so
  /// schedule-far-future-then-cancel cannot grow the heap without bound.
  bool cancel(EventId id);

  /// Run until the queue drains or simulated time would exceed `until`.
  /// Returns the number of events executed.
  std::uint64_t run(SimTime until = SimTime::max());

  /// Events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Pending (non-cancelled) events.
  [[nodiscard]] std::uint64_t events_pending() const { return pending_; }

  /// Campaign-end invariant: every scheduled event fired or was cancelled.
  /// A non-empty queue at the end of a run means a model leaked events —
  /// throws via sim::check (no-op when checks are compiled out).
  void assert_drained() const;

  /// Deterministic named random stream; same (seed, id) -> same draws
  /// regardless of when in the run the stream is first requested.
  [[nodiscard]] Rng rng_stream(std::uint64_t id) const { return Rng{seed_, id}; }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The run's one span sink: every OST, MDS, client and cache span of the
  /// models on this engine goes here (DESIGN.md §6). Empty detaches.
  void set_span_sink(std::function<void(const obs::Span&)> sink) { span_sink_ = std::move(sink); }
  /// Deliver `span` to the sink; does nothing when none is set.
  void emit(const obs::Span& span) const { if (span_sink_) span_sink_(span); }

 private:
  static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffULL);
  }
  static constexpr std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Guarantee free_slots_ is non-empty, creating a slot (with its gens_ and
  /// tasks_ entries) if needed. May allocate/throw; call before arming.
  void ensure_free_slot() {
    if (free_slots_.empty()) grow_slots();
  }
  /// Cold path of ensure_free_slot: mint a fresh slot. Also keeps
  /// free_slots_'s capacity ahead of the slot population, so retire()'s
  /// push_back never reallocates.
  void grow_slots();
  /// Invalidate an armed id: bump the generation, recycle the slot
  /// (cancel path; fired events recycle through execute_popped instead).
  void retire(EventId id);
  [[nodiscard]] bool armed(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < gens_.size() && gens_[slot] == gen_of(id);
  }
  [[nodiscard]] std::uint64_t live_slots() const { return gens_.size() - free_slots_.size(); }

  /// Grow heap_ (amortised doubling) so the next push cannot throw.
  void reserve_entry() {
    if (heap_.size() == heap_.capacity()) {
      heap_.reserve(heap_.capacity() == 0 ? 16 : heap_.capacity() * 2);
    }
  }
  /// Append to the heap and sift up — header-inline: this is the hot half of
  /// every schedule_at. One copy per level, entries are 24-byte PODs.
  void push_entry(SimTime t, EventId id) {
    heap_.push_back(detail::Entry{t, next_seq_++, id});
    std::size_t i = heap_.size() - 1;
    const detail::Entry rising = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!detail::earlier(rising, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = rising;
  }
  /// Remove and return the heap top (caller checks non-empty).
  detail::Entry pop_top();
  /// Sink `sinking` into the hole at index `i`, restoring heap order.
  void sift_hole(std::size_t i, detail::Entry sinking);
  /// Erase cancelled keys (their callables died at cancel), keeping order.
  void compact();
  /// Invariant checks + clock advance for a just-popped entry (its slot
  /// already counted in executing_). The caller invokes the callable.
  void fire(const detail::Entry& top);
  /// Run a popped entry's callable *in place* — no move out of its slot.
  /// The slot is invalidated (cancel misses) but stays off the free list
  /// while the handler executes, so a re-arm cannot clobber a running
  /// callable; it recycles when the handler returns (or throws).
  void execute_popped(const detail::Entry& top);

  SimTime now_ = SimTime::zero();
  std::uint64_t seed_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t executing_ = 0;  // slots held by in-place-running callables
  std::uint64_t dead_ = 0;  // cancelled entries still sitting in the heap
  /// Per-slot callables live in fixed 512-task chunks (32 KiB): stable
  /// addresses, and minting a chunk never relocates live tasks — a plain
  /// vector<Task> would move every task (an indirect call each) on regrowth.
  static constexpr std::size_t kTaskChunkShift = 9;
  static constexpr std::size_t kTaskChunkSize = std::size_t{1} << kTaskChunkShift;
  [[nodiscard]] detail::Task& task_at(std::uint32_t slot) {
    return task_chunks_[slot >> kTaskChunkShift][slot & (kTaskChunkSize - 1)];
  }

  std::vector<detail::Entry> heap_;    // 4-ary min-heap on (time, seq)
  std::vector<std::unique_ptr<detail::Task[]>> task_chunks_;  // slot -> callable
  std::vector<std::uint32_t> gens_;    // per-slot generation; ids embed theirs
  std::vector<std::uint32_t> free_slots_;
  std::function<void(const obs::Span&)> span_sink_;
};

}  // namespace pio::sim
