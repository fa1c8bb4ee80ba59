// Minimal intrusive smart pointer.
//
// A type T opts in by providing two free functions, found by ADL:
//   void intrusive_ref(T* p) noexcept;    // increment reference count
//   void intrusive_unref(T* p) noexcept;  // decrement; reclaim at zero
//
// Tuples use this (see core/tuple.h) so that reclamation of a contribution
// graph can be routed through an iterative cascade instead of recursive
// destructor chains — and so that intrusive_unref, not operator delete, owns
// the release path: at refcount zero the tuple's storage is recycled into
// the tuple pool (common/tuple_pool.h) on whichever thread dropped the last
// reference.
#ifndef GENEALOG_COMMON_INTRUSIVE_PTR_H_
#define GENEALOG_COMMON_INTRUSIVE_PTR_H_

#include <cstddef>
#include <functional>
#include <utility>

namespace genealog {

template <typename T>
class IntrusivePtr {
 public:
  constexpr IntrusivePtr() noexcept = default;
  // NOLINTNEXTLINE(runtime/explicit)
  constexpr IntrusivePtr(std::nullptr_t) noexcept {}

  // Adopts `p`, incrementing its reference count unless `add_ref` is false
  // (used to take over a reference already owned by the caller).
  explicit IntrusivePtr(T* p, bool add_ref = true) noexcept : ptr_(p) {
    if (ptr_ != nullptr && add_ref) intrusive_ref(ptr_);
  }

  IntrusivePtr(const IntrusivePtr& other) noexcept : ptr_(other.ptr_) {
    if (ptr_ != nullptr) intrusive_ref(ptr_);
  }

  template <typename U>
    requires std::convertible_to<U*, T*>
  IntrusivePtr(const IntrusivePtr<U>& other) noexcept  // NOLINT
      : ptr_(other.get()) {
    if (ptr_ != nullptr) intrusive_ref(ptr_);
  }

  IntrusivePtr(IntrusivePtr&& other) noexcept : ptr_(other.ptr_) {
    other.ptr_ = nullptr;
  }

  template <typename U>
    requires std::convertible_to<U*, T*>
  IntrusivePtr(IntrusivePtr<U>&& other) noexcept  // NOLINT
      : ptr_(other.release()) {}

  ~IntrusivePtr() {
    if (ptr_ != nullptr) intrusive_unref(ptr_);
  }

  IntrusivePtr& operator=(const IntrusivePtr& other) noexcept {
    IntrusivePtr(other).swap(*this);
    return *this;
  }

  IntrusivePtr& operator=(IntrusivePtr&& other) noexcept {
    IntrusivePtr(std::move(other)).swap(*this);
    return *this;
  }

  IntrusivePtr& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  void reset() noexcept {
    if (ptr_ != nullptr) {
      intrusive_unref(ptr_);
      ptr_ = nullptr;
    }
  }

  // Relinquishes ownership without touching the reference count.
  T* release() noexcept {
    T* p = ptr_;
    ptr_ = nullptr;
    return p;
  }

  void swap(IntrusivePtr& other) noexcept { std::swap(ptr_, other.ptr_); }

  T* get() const noexcept { return ptr_; }
  T& operator*() const noexcept { return *ptr_; }
  T* operator->() const noexcept { return ptr_; }
  explicit operator bool() const noexcept { return ptr_ != nullptr; }

  friend bool operator==(const IntrusivePtr& a, const IntrusivePtr& b) {
    return a.ptr_ == b.ptr_;
  }
  friend bool operator==(const IntrusivePtr& a, const T* b) {
    return a.ptr_ == b;
  }
  friend bool operator==(const IntrusivePtr& a, std::nullptr_t) {
    return a.ptr_ == nullptr;
  }

 private:
  T* ptr_ = nullptr;
};

// Casts the pointee statically; both trees share the reference count.
template <typename To, typename From>
IntrusivePtr<To> StaticPointerCast(const IntrusivePtr<From>& p) {
  return IntrusivePtr<To>(static_cast<To*>(p.get()));
}

}  // namespace genealog

template <typename T>
struct std::hash<genealog::IntrusivePtr<T>> {
  size_t operator()(const genealog::IntrusivePtr<T>& p) const noexcept {
    return std::hash<T*>()(p.get());
  }
};

#endif  // GENEALOG_COMMON_INTRUSIVE_PTR_H_
