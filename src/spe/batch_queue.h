// Bounded queue of StreamBatches — the physical stream between two operator
// nodes. Every node not chained into its producer owns one as its input
// queue; logical ports are tags on the batches, so fan-in edges (parallel
// partitions merging into a Union, Multiplex taps, MU upstream ports fed by
// several Receive nodes) and the dominant one-producer edge share the same
// queue.
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
//  * One non-blocking protocol: TryPush reports kFull instead of waiting,
//    PopSome reports kEmpty instead of waiting, and readiness travels
//    through an attached Signal — DataReady on every landed push, RoomFreed
//    on a pop after a producer declared itself waiting. Nobody ever sleeps
//    inside the queue; the executor (spe/scheduler.h) parks tasks and wakes
//    them from these signals. PopSome drains a whole burst under one lock
//    so the consumer amortizes its round-trips over the backlog.
#ifndef GENEALOG_SPE_BATCH_QUEUE_H_
#define GENEALOG_SPE_BATCH_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "spe/stream_batch.h"

namespace genealog {

class StreamQueue {
 public:
  // Readiness listener of the executor. At most one per queue, attached
  // after the topology is built and before execution starts, detached after
  // every node retired. Callbacks fire on the calling thread with no queue
  // lock held.
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

  // Attaches/detaches the readiness listener.
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
  // size). A batch that does not fit is left untouched and reported kFull;
  // a batch larger than the capacity is admitted into an empty queue.
  // Control-only batches merge without consuming weight, even into a full
  // queue — exactly like the seed's watermark coalescing.
  PushStatus TryPush(StreamBatch& batch, size_t max_coalesce) {
    std::unique_lock lock(mu_);
    if (aborted_.load(std::memory_order_relaxed)) return PushStatus::kAborted;
    if (!TryCoalesce(batch, max_coalesce)) {
      const size_t w = batch.weight();
      if (weight_ + w > capacity_ && !items_.empty()) return PushStatus::kFull;
      SetWeight(weight_ + w);
      items_.push_back(std::move(batch));
    }
    lock.unlock();
    if (signal_ != nullptr) signal_->DataReady();
    return PushStatus::kOk;
  }

  // Bounded drain: moves up to `max_batches` queued batches into `out`
  // (appending) under one lock. An empty queue reports kEmpty; kAborted is
  // only reported once the queue is also drained (the abort-then-drain
  // teardown contract).
  PopStatus PopSome(std::vector<StreamBatch>& out, size_t max_batches) {
    std::unique_lock lock(mu_);
    if (items_.empty()) {
      return aborted_.load(std::memory_order_relaxed) ? PopStatus::kAborted
                                                      : PopStatus::kEmpty;
    }
    size_t released = 0;
    for (size_t taken = 0; !items_.empty() && taken < max_batches; ++taken) {
      released += items_.front().weight();
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    SetWeight(weight_ - released);
    lock.unlock();
    NotifyRoom();
    return PopStatus::kPopped;
  }

  // Single-batch pop, for draining in tests.
  std::optional<StreamBatch> TryPop() {
    std::vector<StreamBatch> out;
    if (PopSome(out, 1) != PopStatus::kPopped) return std::nullopt;
    return std::move(out.front());
  }

  // Every later push fails; pops drain the remaining batches, then report
  // kAborted. Used to tear a topology down on error. The parked tasks on
  // either side must observe the abort: wake the consumer (its next PopSome
  // reports kAborted once drained) and any spilled producer (its retry
  // discards the spill).
  void Abort() {
    {
      std::lock_guard lock(mu_);
      aborted_.store(true, std::memory_order_relaxed);
    }
    if (signal_ != nullptr) signal_->DataReady();
    NotifyRoom();
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

  // Lock-free abort probe: a chain head asks it on every push through its
  // chain, so the flag keeps a cache line of its own that only Abort writes.
  bool aborted() const { return aborted_.load(std::memory_order_relaxed); }

 private:
  // Merges `batch` into the tail if stream order and the caps allow it.
  // Caller holds the lock and has checked the abort: a push that observes
  // the abort fails without mutating the queue, so nothing coalesces into
  // a dead tail.
  bool TryCoalesce(StreamBatch& batch, size_t max_coalesce) {
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
  std::deque<StreamBatch> items_;
  size_t weight_ = 0;
  std::atomic<size_t> approx_weight_{0};
  Signal* signal_ = nullptr;
  std::atomic<bool> producer_waiting_{false};
  // Written under mu_; read under it, or lock-free by aborted(). Last and
  // line-aligned, so no other member shares its cache line.
  alignas(64) std::atomic<bool> aborted_{false};
};

}  // namespace genealog

#endif  // GENEALOG_SPE_BATCH_QUEUE_H_
