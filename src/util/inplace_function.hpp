// inplace_function.hpp — small-buffer-optimised move-only callable.
//
// The event scheduler stores one callback per pending event; with
// `std::function` every schedule() heap-allocates a closure, which is the
// single largest per-event cost in a large trial.  `InplaceFunction` keeps
// the closure inline in a fixed buffer (no heap, ever: captures larger than
// the buffer fail to compile), dispatches through one static ops table
// pointer, and is move-only so it can hold move-only captures.  It is not a
// general `std::function` replacement — only what the simulator needs.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace firefly::util {

template <typename Signature, std::size_t Capacity = 48>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  InplaceFunction() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFunction>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    static_assert(std::is_invocable_r_v<R, D&, Args...>,
                  "callable signature mismatch");
    static_assert(sizeof(D) <= Capacity,
                  "closure captures exceed the inline buffer; grow Capacity "
                  "or capture less");
    static_assert(alignof(D) <= alignof(std::max_align_t));
    ::new (static_cast<void*>(buffer_)) D(std::forward<F>(f));
    ops_ = &ops_for<D>;
  }

  InplaceFunction(InplaceFunction&& other) noexcept { move_from(other); }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InplaceFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(buffer_, std::forward<Args>(args)...);
  }

  /// Deep copy of the stored callable.  The class stays move-only (the
  /// scheduler never copies events accidentally); cloning is the explicit
  /// escape hatch the snapshot/restore checkpoint uses to duplicate a
  /// pending-event set.  Requires the callable to be copy-constructible —
  /// every closure the engines schedule is (they capture raw pointers and
  /// scalars); a non-copyable capture asserts.  An empty function clones
  /// to an empty function.
  [[nodiscard]] InplaceFunction clone() const {
    InplaceFunction out;
    if (ops_ != nullptr) {
      assert(ops_->copy != nullptr &&
             "clone() requires a copy-constructible callable");
      ops_->copy(out.buffer_, buffer_);
      out.ops_ = ops_;
    }
    return out;
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args...);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
    void (*copy)(void* dst, const void* src);  // null for non-copyable callables
  };

  template <typename D>
  static constexpr auto copy_op() -> void (*)(void*, const void*) {
    if constexpr (std::is_copy_constructible_v<D>) {
      return [](void* dst, const void* src) {
        ::new (dst) D(*std::launder(reinterpret_cast<const D*>(src)));
      };
    } else {
      return nullptr;
    }
  }

  template <typename D>
  static constexpr Ops ops_for{
      [](void* p, Args... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(p)))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); },
      copy_op<D>(),
  };

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

  void move_from(InplaceFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buffer_, other.buffer_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buffer_[Capacity];
};

}  // namespace firefly::util
