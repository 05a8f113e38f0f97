// PIOEval sim: `Task`, the engine's event callable.
//
// Every event's callable lives in a per-slot `Task` beside the heap
// (48-byte small-buffer; the heap itself moves 24-byte POD keys, see
// engine.hpp). Stage closures on the simulated hot path capture `this` plus
// a 32-bit record handle and always fit the buffer (DESIGN.md §16); a
// callable that does not fit lives in a plain `new` allocation freed by the
// task's destroy op. Over-aligned callables are rejected at compile time.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pio::sim::detail {

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
  void emplace(F&& fn) {
    static_assert(std::is_invocable_r_v<void, Fn&>, "Task requires a void() callable");
    reset();
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      static_assert(alignof(Fn) <= alignof(std::max_align_t),
                    "Task: over-aligned callables are not supported — an "
                    "oversized callable gets only max_align_t alignment; store the "
                    "over-aligned state behind a pointer (e.g. unique_ptr) in the "
                    "capture");
      *reinterpret_cast<Fn**>(static_cast<void*>(storage_)) = new Fn(std::forward<F>(fn));
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
      [](void* storage) noexcept { delete *static_cast<Fn**>(storage); },
      // The stored state is one pointer: moving it is a raw copy, but
      // destruction must always run to free the callable.
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
