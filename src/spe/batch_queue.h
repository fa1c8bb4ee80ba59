// Bounded blocking queue of StreamBatches — the physical stream between two
// operator nodes. Every node owns one as its input queue; logical ports are
// tags on the batches, so fan-in edges (parallel partitions merging into a
// Union, Multiplex taps, MU upstream ports fed by several Receive nodes) and
// the dominant one-producer edge share the same queue.
//
// Three things distinguish it from the generic BoundedQueue:
//
//  * Weight-based capacity: the bound counts queued *tuples* (control-only
//    batches weigh 1), so the back-pressure a slow consumer exerts is
//    independent of the batch knob.
//  * Batch-aware coalescing: a pushed batch merges into the queue's tail
//    batch when both come from the same port and the combined tuple count
//    stays within the producer's batch size. Under load, small batches grow
//    toward the knob at the queue tail, so a saturated consumer pays one
//    lock round-trip per chunk instead of per tuple. Control-only batches
//    (watermark advances, flush) always merge — the batched form of the
//    seed's watermark coalescing, which keeps watermark-dominated streams
//    (high fan-out partitioners, selective filters) from flooding queues.
//  * A light busy path: waiter counts let the busy side skip condvar
//    notifies entirely (no syscalls when nobody sleeps), and PopSome drains
//    a whole burst under one lock so the consumer amortizes its round-trips
//    over the backlog.
//
// The pool scheduler (spe/scheduler.h) never blocks on a queue: it uses
// TryPush and the non-waiting PopSome, and listens for readiness through an
// attached Signal.
#ifndef GENEALOG_SPE_BATCH_QUEUE_H_
#define GENEALOG_SPE_BATCH_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "spe/stream_batch.h"

namespace genealog {

class StreamQueue {
 public:
  // Readiness listener for the pool scheduler. At most one per queue,
  // attached after the topology is built and before execution starts,
  // detached after every node retired. Callbacks fire on the calling thread
  // with no queue lock held.
  class Signal {
   public:
    virtual ~Signal() = default;
    // A batch was pushed: the consumer has input and is runnable.
    virtual void DataReady() = 0;
    // A pop freed capacity after a producer declared itself waiting: spilled
    // producers can retry.
    virtual void RoomFreed() = 0;
  };

  explicit StreamQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  StreamQueue(const StreamQueue&) = delete;
  StreamQueue& operator=(const StreamQueue&) = delete;

  // Attaches/detaches the scheduler's readiness listener. Pushes and pops by
  // any thread (pool workers and pinned node threads alike) fire through it,
  // so readiness crosses the pool boundary.
  void set_signal(Signal* signal) { signal_ = signal; }

  // A producer whose TryPush reported kFull publishes its interest here,
  // *then* retries once: either the retry succeeds, or a pop after the flag
  // became visible claims it and fires RoomFreed — no lost wakeup either
  // way (the retry and the pop serialize on the queue lock).
  void MarkProducerWaiting() {
    producer_waiting_.store(true, std::memory_order_seq_cst);
  }

  // Pushes one batch, coalescing into the tail when possible. `max_coalesce`
  // caps the tuple count of a merged tail (the producing endpoint's batch
  // size). Blocks while the weight bound is exceeded; returns false if the
  // queue was aborted.
  bool Push(StreamBatch batch, size_t max_coalesce) {
    std::unique_lock lock(mu_);
    if (aborted_) return false;
    // Control-only batches merge without consuming weight, even into a full
    // queue — exactly like the seed's watermark coalescing.
    if (TryCoalesce(batch, max_coalesce)) {
      NotifyConsumer(lock);
      return true;
    }
    const size_t w = batch.weight();
    if (weight_ + w > capacity_ && !items_.empty()) {
      ++waiting_producers_;
      not_full_.wait(lock, [&] {
        return weight_ + w <= capacity_ || items_.empty() || aborted_;
      });
      --waiting_producers_;
      if (aborted_) return false;
      // The tail may have changed while blocked; retry the merge.
      if (TryCoalesce(batch, max_coalesce)) {
        NotifyConsumer(lock);
        return true;
      }
    }
    SetWeight(weight_ + batch.weight());
    items_.push_back(std::move(batch));
    NotifyConsumer(lock);
    return true;
  }

  // Non-blocking push for the pool scheduler: where Push would wait for
  // room, TryPush leaves `batch` untouched and reports kFull so the caller
  // can park the batch in a spill buffer and retry on the edge's room-freed
  // signal. Coalescing and admission rules are exactly Push's.
  PushStatus TryPush(StreamBatch& batch, size_t max_coalesce) {
    std::unique_lock lock(mu_);
    if (aborted_) return PushStatus::kAborted;
    if (TryCoalesce(batch, max_coalesce)) {
      NotifyConsumer(lock);
      return PushStatus::kOk;
    }
    const size_t w = batch.weight();
    if (weight_ + w > capacity_ && !items_.empty()) return PushStatus::kFull;
    SetWeight(weight_ + w);
    items_.push_back(std::move(batch));
    NotifyConsumer(lock);
    return PushStatus::kOk;
  }

  // Bounded drain: moves up to `max_batches` queued batches into `out`
  // (appending) under one lock. With `wait` it blocks while the queue is
  // empty — the dedicated-thread pop, one lock round-trip per burst;
  // without it an empty queue reports kEmpty at once — the pool's pop.
  // kAborted is only reported once the queue is also drained (the
  // abort-then-drain teardown contract).
  PopStatus PopSome(std::vector<StreamBatch>& out, size_t max_batches,
                    bool wait) {
    std::unique_lock lock(mu_);
    if (wait) WaitNotEmpty(lock);
    if (items_.empty()) {
      return aborted_ ? PopStatus::kAborted : PopStatus::kEmpty;
    }
    size_t taken = 0;
    size_t released = 0;
    while (!items_.empty() && taken < max_batches) {
      released += items_.front().weight();
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    SetWeight(weight_ - released);
    NotifyProducers(lock);
    return PopStatus::kPopped;
  }

  // Blocks while empty. Returns nullopt once aborted and drained.
  std::optional<StreamBatch> Pop() {
    std::unique_lock lock(mu_);
    WaitNotEmpty(lock);
    if (items_.empty()) return std::nullopt;
    StreamBatch batch = std::move(items_.front());
    items_.pop_front();
    SetWeight(weight_ - batch.weight());
    NotifyProducers(lock);
    return batch;
  }

  // Non-blocking pop, for draining in tests.
  std::optional<StreamBatch> TryPop() {
    std::unique_lock lock(mu_);
    if (items_.empty()) return std::nullopt;
    StreamBatch batch = std::move(items_.front());
    items_.pop_front();
    SetWeight(weight_ - batch.weight());
    NotifyProducers(lock);
    return batch;
  }

  // Wakes all waiters; subsequent Push fails, Pop drains remaining batches
  // then reports end. Used to tear a topology down on error.
  void Abort() {
    {
      std::lock_guard lock(mu_);
      aborted_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
    // Parked pool tasks on either side must observe the abort: wake the
    // consumer (its next PopSome reports kAborted once drained) and any
    // spilled producers (their retry discards the spill).
    if (signal_ != nullptr) {
      signal_->DataReady();
      NotifyRoom();
    }
  }

  // Queued batches / queued weight (tuples; control-only batches count 1).
  size_t Size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }
  size_t Weight() const {
    std::lock_guard lock(mu_);
    return weight_;
  }
  // Lock-free depth sample (a relaxed mirror of weight_, maintained under
  // the lock) so adaptive batch sizing can probe queue depth per flush
  // without a lock round-trip.
  size_t ApproxWeight() const {
    return approx_weight_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

 private:
  // Merges `batch` into the tail if stream order and the caps allow it.
  // Caller holds the lock.
  bool TryCoalesce(StreamBatch& batch, size_t max_coalesce) {
    // Contract: a Push that observes the abort — in particular one that was
    // parked in the producer wait when Abort fired — must fail without
    // mutating the queue. The guard lives here, not only at the call sites,
    // so the no-coalesce-into-a-dead-tail rule holds structurally instead of
    // by check ordering in Push (AbortDuringProducerWaitTest in
    // coalesce_test drives that schedule).
    if (aborted_) return false;
    if (items_.empty()) return false;
    StreamBatch& tail = items_.back();
    if (tail.port != batch.port || tail.flush) return false;
    if (!batch.tuples.empty()) {
      if (tail.tuples.size() + batch.tuples.size() > max_coalesce) return false;
      const size_t old_weight = tail.weight();
      const size_t new_weight = tail.tuples.size() + batch.tuples.size();
      if (weight_ - old_weight + new_weight > capacity_) return false;
      tail.tuples.AppendMoved(batch.tuples);
      SetWeight(weight_ + new_weight - old_weight);
    }
    // Deferring the tail's watermark past the appended tuples is safe: those
    // tuples already satisfy ts >= watermark (sorted-stream contract), see
    // stream_batch.h.
    tail.watermark = std::max(tail.watermark, batch.watermark);
    tail.flush = tail.flush || batch.flush;
    return true;
  }

  void WaitNotEmpty(std::unique_lock<std::mutex>& lock) {
    if (!items_.empty() || aborted_) return;
    ++waiting_consumers_;
    not_empty_.wait(lock, [&] { return !items_.empty() || aborted_; });
    --waiting_consumers_;
  }

  // Notify-if-waiting: the waiter counts are maintained under mu_, so a
  // consumer between its empty-check and its wait is always observed here.
  // Both release the lock before notifying or signalling.
  void NotifyConsumer(std::unique_lock<std::mutex>& lock) {
    const bool wake = waiting_consumers_ > 0;
    lock.unlock();
    if (wake) not_empty_.notify_one();
    if (signal_ != nullptr) signal_->DataReady();
  }
  void NotifyProducers(std::unique_lock<std::mutex>& lock) {
    const bool wake = waiting_producers_ > 0;
    lock.unlock();
    if (wake) not_full_.notify_all();
    NotifyRoom();
  }

  // Fires RoomFreed only when a producer declared itself waiting, claiming
  // the flag so each wait round costs one callback.
  void NotifyRoom() {
    if (signal_ == nullptr) return;
    if (producer_waiting_.load(std::memory_order_seq_cst) &&
        producer_waiting_.exchange(false, std::memory_order_seq_cst)) {
      signal_->RoomFreed();
    }
  }

  // Caller holds the lock; keeps the lock-free mirror in sync.
  void SetWeight(size_t w) {
    weight_ = w;
    approx_weight_.store(w, std::memory_order_relaxed);
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<StreamBatch> items_;
  size_t weight_ = 0;
  std::atomic<size_t> approx_weight_{0};
  size_t waiting_producers_ = 0;
  size_t waiting_consumers_ = 0;
  bool aborted_ = false;
  // Scheduler plumbing: null (and never fired) under thread-per-node.
  Signal* signal_ = nullptr;
  std::atomic<bool> producer_waiting_{false};
};

}  // namespace genealog

#endif  // GENEALOG_SPE_BATCH_QUEUE_H_
