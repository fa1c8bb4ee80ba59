// Bounded blocking queue — the frame queue behind InMemoryChannel
// (net/channel.h), a plain mutex+condvar FIFO between the Send and Receive
// threads of one in-process channel. The operator-to-operator streams of the
// SPE use the batch-aware StreamQueue (spe/batch_queue.h) instead.
//
// Back-pressure is provided by the capacity bound: producers block when the
// consumer is slower. The busy-path cost is kept low the same way as in
// StreamQueue: waiter counts let the active side skip condvar notifies
// entirely when nobody sleeps, so an uncontended push or pop is one lock
// round-trip and no syscalls.
#ifndef GENEALOG_COMMON_BOUNDED_QUEUE_H_
#define GENEALOG_COMMON_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace genealog {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while full. Returns false if the queue was aborted.
  bool Push(T item) {
    std::unique_lock lock(mu_);
    WaitNotFull(lock);
    if (aborted_) return false;
    items_.push_back(std::move(item));
    NotifyConsumers(lock);
    return true;
  }

  // Blocks while empty. Returns nullopt once aborted and drained.
  std::optional<T> Pop() {
    std::unique_lock lock(mu_);
    if (items_.empty() && !aborted_) {
      ++waiting_consumers_;
      not_empty_.wait(lock, [&] { return !items_.empty() || aborted_; });
      --waiting_consumers_;
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    NotifyProducers(lock);
    return item;
  }

  // Non-blocking pop, for draining in tests.
  std::optional<T> TryPop() {
    std::unique_lock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    NotifyProducers(lock);
    return item;
  }

  // Wakes all waiters; subsequent Push fails, Pop drains remaining items then
  // reports end. Used to tear a topology down on error.
  void Abort() {
    {
      std::lock_guard lock(mu_);
      aborted_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t Size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  void WaitNotFull(std::unique_lock<std::mutex>& lock) {
    if (items_.size() < capacity_ || aborted_) return;
    ++waiting_producers_;
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || aborted_; });
    --waiting_producers_;
  }

  // Notify-if-waiting: waiter counts are maintained under mu_, so a thread
  // between its predicate check and its wait is always observed here.
  void NotifyConsumers(std::unique_lock<std::mutex>& lock) {
    const bool wake = waiting_consumers_ > 0;
    lock.unlock();
    if (wake) not_empty_.notify_one();
  }
  void NotifyProducers(std::unique_lock<std::mutex>& lock) {
    const bool wake = waiting_producers_ > 0;
    lock.unlock();
    if (wake) not_full_.notify_one();
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  size_t waiting_producers_ = 0;
  size_t waiting_consumers_ = 0;
  bool aborted_ = false;
};

}  // namespace genealog

#endif  // GENEALOG_COMMON_BOUNDED_QUEUE_H_
