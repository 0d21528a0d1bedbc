// Move-only callable with inline storage for simulator events.
//
// The common event — a lambda capturing `this` plus a few scalars — fits in
// its slot in the event slab, so scheduling it allocates nothing. libstdc++'s
// std::function only inlines captures up to two words, which made nearly
// every scheduled event a heap allocation; profiling the replay engine put
// that churn at the top of the hot loop. Captures larger than kInlineBytes
// (replies and requests carrying strings) fall back to a single heap cell,
// exactly as std::function would.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace webcc::sim {

class Task {
 public:
  // this + six words: covers the replay engine's scalar captures. The four
  // events of each server request that carry a net::Request or net::Reply
  // (the forward hop, its network delivery, the reply hop and its delivery)
  // do not fit and take one heap cell each.
  static constexpr std::size_t kInlineBytes = 56;

  Task() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (FitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  Task(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  Task(Task&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs dst from src, then destroys src (heap mode: steals the
    // pointer). noexcept so slab growth never throws mid-move.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr bool FitsInline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* self) { (*static_cast<Fn*>(self))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* self) { static_cast<Fn*>(self)->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static void Invoke(void* self) { (**static_cast<Fn**>(self))(); }
    static void Relocate(void* dst, void* src) {
      *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
    }
    static void Destroy(void* self) { delete *static_cast<Fn**>(self); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace webcc::sim
