// PIOEval sim: event-payload storage — the Task callable and its slab.
//
// Every event's callable lives in a per-slot `Task` beside the heap
// (48-byte small-buffer; the heap itself moves 24-byte POD keys, see
// engine.hpp). Callables that do not fit the buffer go behind a pointer,
// and this header owns everything about that oversized path:
//
//   - `PayloadHeader` — the header preceding every oversized payload.
//     `release_payload` reads its owner, so a payload can be freed without
//     a reference to the slab that allocated it.
//   - `OversizeSlab` — per-engine size-class free lists (64 B … 8 KiB);
//     a model that repeatedly schedules the same fat closure pays one
//     allocation, not one per event. Payloads beyond the largest class go to
//     the plain heap. The slab is the engine's only oversized allocator: real
//     runs schedule few oversized payloads, but it recycles most of them
//     (DESIGN.md §16).
//
// The slab guarantees std::max_align_t alignment and nothing more —
// over-aligned callables are rejected at compile time by `Task`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace pio::sim::detail {

class OversizeSlab;

/// Header preceding every oversized payload at the next max_align_t
/// boundary, so release needs no context.
struct PayloadHeader {
  OversizeSlab* owner;       ///< size-class slab, or nullptr for the plain heap
  std::uint32_t size_class;  ///< slab payloads only
  PayloadHeader* next_free;  ///< slab free-list linkage
};

/// Header-to-payload offset: the next max_align_t boundary.
inline constexpr std::size_t kPayloadHeaderBytes =
    (sizeof(PayloadHeader) + alignof(std::max_align_t) - 1) / alignof(std::max_align_t) *
    alignof(std::max_align_t);

/// Return an oversized payload (from any slab or the plain heap) to its
/// allocator of origin. O(1), noexcept; defined in arena.cpp.
void release_payload(void* payload) noexcept;

/// Recycling allocator for event callables too large for the inline buffer
/// of a queue entry. Freed payloads go on per-size-class free lists (64 B …
/// 8 KiB, powers of two) owned by the engine. Payloads beyond the largest
/// class fall back to plain new/delete.
class OversizeSlab {
 public:
  OversizeSlab() = default;
  OversizeSlab(const OversizeSlab&) = delete;
  OversizeSlab& operator=(const OversizeSlab&) = delete;
  ~OversizeSlab();

  /// Storage for `bytes`, aligned for std::max_align_t.
  [[nodiscard]] void* allocate(std::size_t bytes);

  static constexpr int kClasses = 8;
  static constexpr std::size_t class_payload_bytes(int size_class) {
    return std::size_t{64} << size_class;
  }

 private:
  friend void release_payload(void* payload) noexcept;

  PayloadHeader* free_lists_[kClasses] = {};
};

/// Move-only type-erased `void()` callable with inline small-buffer storage.
/// The dispatch table is a plain struct of function pointers (no virtual
/// call, no RTTI); relocation is noexcept so queue sifts never throw.
class Task {
 public:
  /// Inline capacity: sized so a captureful lambda with a handful of
  /// pointers/values — or a whole std::function — stays in the entry.
  static constexpr std::size_t kInlineBytes = 48;

  Task() noexcept = default;

  /// Construct a callable directly into this task (the engine's hot path:
  /// no temporary Task, no relocate call). Resets any current callable
  /// first; if construction throws, the task is left empty.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Task>>>
  void emplace(F&& fn, OversizeSlab& slab) {
    static_assert(std::is_invocable_r_v<void, Fn&>, "Task requires a void() callable");
    reset();
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      static_assert(alignof(Fn) <= alignof(std::max_align_t),
                    "Task: over-aligned callables are not supported — payload "
                    "slab guarantees only max_align_t alignment; store the "
                    "over-aligned state behind a pointer (e.g. unique_ptr) in the "
                    "capture");
      void* payload = slab.allocate(sizeof(Fn));
      try {
        ::new (payload) Fn(std::forward<F>(fn));
      } catch (...) {
        release_payload(payload);
        throw;
      }
      *reinterpret_cast<void**>(static_cast<void*>(storage_)) = payload;
      ops_ = &kOversizeOps<Fn>;
    }
  }

  Task(Task&& other) noexcept { move_from(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  void operator()() { ops_->call(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial_destroy) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*call)(void* storage);
    void (*relocate)(void* dst_storage, void* src_storage) noexcept;
    void (*destroy)(void* storage) noexcept;
    // Fast-path flags: a trivially relocatable callable moves as a raw
    // storage copy and a trivially destructible one skips the destroy call —
    // both dodge an indirect call per event on the engine's drain path.
    bool trivial_relocate;
    bool trivial_destroy;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* storage) { (*static_cast<Fn*>(storage))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* storage) noexcept { static_cast<Fn*>(storage)->~Fn(); },
      std::is_trivially_copyable_v<Fn>, std::is_trivially_destructible_v<Fn>};

  template <typename Fn>
  static constexpr Ops kOversizeOps{
      [](void* storage) { (**static_cast<Fn**>(storage))(); },
      [](void* dst, void* src) noexcept { *static_cast<void**>(dst) = *static_cast<void**>(src); },
      [](void* storage) noexcept {
        Fn* fn = *static_cast<Fn**>(storage);
        fn->~Fn();
        release_payload(fn);
      },
      // The stored state is one pointer: moving it is a raw copy, but
      // destruction must always run to free the payload.
      true, false};

  void move_from(Task& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivial_relocate) {
        __builtin_memcpy(storage_, other.storage_, kInlineBytes);
      } else {
        ops_->relocate(storage_, other.storage_);
      }
    }
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace pio::sim::detail
