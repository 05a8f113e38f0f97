#include "sim/engine.hpp"

#include <algorithm>
#include <string>

#include "sim/check.hpp"

namespace pio::sim {

void Engine::grow_slots() {
  // Mint slots a whole task chunk at a time: a storm that schedules N fresh
  // events would otherwise take this cold path N times, and the capacity
  // checks dominate its cost. Reserve/allocate everything first, then mutate
  // with noexcept push_backs only: a throw mid-growth must not leave a slot
  // outside both the free list and the armed population (live_slots() would
  // drift from pending_). A minted-but-unused task chunk is benign; a leaked
  // slot is not.
  const std::size_t base = gens_.size();
  const std::size_t total = base + (kTaskChunkSize - (base & (kTaskChunkSize - 1)));
  if (free_slots_.capacity() < total) {
    free_slots_.reserve(std::max<std::size_t>(total, base * 2));
  }
  if (gens_.capacity() < total) gens_.reserve(std::max<std::size_t>(total, base * 2));
  if (((total - 1) >> kTaskChunkShift) >= task_chunks_.size()) {
    task_chunks_.push_back(std::make_unique<detail::Task[]>(kTaskChunkSize));
  }
  // Push in descending order so fresh slots pop in ascending order — the
  // same hand-out sequence as one-at-a-time minting produced.
  for (std::size_t slot = total; slot-- > base;) {
    gens_.push_back(1);
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
  }
}

void Engine::retire(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (++gens_[slot] == 0) gens_[slot] = 1;  // generation 0 is never issued
  free_slots_.push_back(slot);
  --pending_;
}

void Engine::sift_hole(std::size_t i, detail::Entry sinking) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], sinking)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = sinking;
}

detail::Entry Engine::pop_top() {
  const detail::Entry out = heap_.front();
  const detail::Entry sinking = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_hole(0, sinking);
  return out;
}

void Engine::compact() {
  const auto first_dead = std::remove_if(
      heap_.begin(), heap_.end(),
      [this](const detail::Entry& entry) { return !armed(entry.id); });
  heap_.erase(first_dead, heap_.end());  // keys only: callables died at cancel
  // Floyd heapify: sift from the last parent down to the root. Order on
  // (time, seq) is a strict total order, so the resulting pop sequence is
  // identical to the lazy path's — compaction cannot move the campaign hash.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
      sift_hole(i, heap_[i]);
    }
  }
  dead_ = 0;
}

bool Engine::cancel(EventId id) {
  if (!armed(id)) return false;
  task_at(slot_of(id)).reset();  // the callable (and its captures) dies now
  retire(id);
  ++dead_;
  // The orphaned heap key is normally dropped lazily when it surfaces; once
  // dead keys outnumber live ones, compact so the heap cannot grow without
  // bound under schedule-far-future-then-cancel. The threshold keeps small
  // queues on the strict O(1) path, and the trigger depends only on the
  // event sequence, so it is deterministic across runs and thread counts.
  constexpr std::uint64_t kCompactMinDead = 64;
  if (dead_ >= kCompactMinDead && dead_ * 2 > heap_.size()) compact();
  return true;
}

void Engine::fire(const detail::Entry& top) {
  if constexpr (check::kEnabled) {
    // Semantic per-event check: a time warp must fail on the exact event.
    if (top.time < now_) {
      check::fail("monotonic clock", "event at " + std::to_string(top.time.ns()) +
                                         "ns behind now=" + std::to_string(now_.ns()) + "ns");
    }
    // Global accounting invariants drift monotonically once corrupted, so
    // sampling every 64th event catches the same bug classes as per-event
    // checking at a fraction of the hot-loop cost; assert_drained() is the
    // exact backstop at campaign end.
    if ((executed_ & 63) == 0) {
      if (live_slots() != pending_ + executing_) {
        check::fail("slot/pending agreement", "live=" + std::to_string(live_slots()) +
                                                  " pending=" + std::to_string(pending_) +
                                                  " executing=" + std::to_string(executing_));
      }
      if (heap_.size() != pending_ + dead_) {
        check::fail("queue covers pending + dead events",
                    "queue=" + std::to_string(heap_.size()) + " pending=" +
                        std::to_string(pending_) + " dead=" + std::to_string(dead_));
      }
    }
  }
  now_ = top.time;
  ++executed_;
}

void Engine::execute_popped(const detail::Entry& top) {
  // Invalidate the id (a cancel from inside any handler is now a no-op) but
  // hold the slot off the free list while its callable runs: a re-arm must
  // not construct a new callable over one that is still executing. The move
  // this replaces cost a 48-byte relocate per event on the drain path.
  const std::uint32_t slot = slot_of(top.id);
  if (++gens_[slot] == 0) gens_[slot] = 1;  // generation 0 is never issued
  --pending_;
  ++executing_;
  fire(top);
  detail::Task& task = task_at(slot);
  try {
    task();
  } catch (...) {
    task.reset();
    --executing_;
    free_slots_.push_back(slot);
    throw;
  }
  task.reset();  // captures die at fire, not at next slot reuse
  --executing_;
  free_slots_.push_back(slot);
}

std::uint64_t Engine::run(SimTime until) {
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    // Skip over cancelled keys to find the true next time (none exist while
    // dead_ == 0, so the common case is one predictable register test).
    if (dead_ != 0 && !armed(heap_.front().id)) {
      pop_top();
      --dead_;
      continue;
    }
    if (heap_.front().time > until) break;
    // Pull the callable's cache line in while the pop's sift-down works.
    __builtin_prefetch(&task_at(slot_of(heap_.front().id)));
    const detail::Entry top = pop_top();
    execute_popped(top);
    ++n;
  }
  return n;
}

void Engine::assert_drained() const {
  check::that(pending_ == 0 && live_slots() == 0, "queue drained at campaign end", [this] {
    return "pending=" + std::to_string(pending_) + " live_slots=" + std::to_string(live_slots());
  });
}

}  // namespace pio::sim
