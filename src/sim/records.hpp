// PIOEval sim: pooled in-flight records for the stages of the simulated stack.
//
// One rule for every layer (DESIGN.md §16): a stage that must remember state
// across engine events keeps it in a pooled record, and its closures capture
// only `this` and the record's 32-bit handle. Such a capture is 16 bytes and
// trivially copyable, so std::function and the engine's Task both store it
// inline and a stage costs no heap allocation. A pool is a vector plus a free
// list: it grows to peak concurrency and is never shrunk during a run.
// Records are reused as they are — a reused record's strings and vectors keep
// their capacity — so `acquire` hands out a slot and the caller assigns every
// field it later reads.
//
// References into a pool are invalidated by `acquire` (the vector may grow).
// A stage reads its record by handle each time, and never holds a reference
// across a call that can start another request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pio::sim {

/// Index of a record in its RecordPool.
using Handle = std::uint32_t;

/// Vector-plus-free-list pool of `T` records.
template <typename T>
class RecordPool {
 public:
  /// A free record's handle. Its fields hold whatever its last user left.
  [[nodiscard]] Handle acquire() {
    if (free_.empty()) {
      records_.emplace_back();
      // Keep the free list able to hold every record, so release() never
      // reallocates.
      if (free_.capacity() < records_.capacity()) free_.reserve(records_.capacity());
      return static_cast<Handle>(records_.size() - 1);
    }
    const Handle h = free_.back();
    free_.pop_back();
    return h;
  }

  /// Return `h` to the free list. The record keeps its contents (and their
  /// capacity) until it is acquired again.
  void release(Handle h) noexcept { free_.push_back(h); }

  [[nodiscard]] T& operator[](Handle h) { return records_[h]; }

  /// Records acquired and not yet released.
  [[nodiscard]] std::size_t live() const { return records_.size() - free_.size(); }

 private:
  std::vector<T> records_;
  std::vector<Handle> free_;
};

/// FIFO of plain values on a power-of-two ring that grows to peak depth.
template <typename T>
class Ring {
 public:
  void push(const T& value) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = value;
    ++size_;
  }
  [[nodiscard]] const T& front() const { return ring_[head_]; }
  T pop() {
    const T value = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return value;
  }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  void grow() {
    std::vector<T> bigger(ring_.empty() ? 16 : ring_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pio::sim
