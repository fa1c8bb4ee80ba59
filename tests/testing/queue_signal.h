// Drives a StreamQueue from plain test threads. The queue never blocks:
// TryPush reports kFull and PopSome reports kEmpty. A thread that must wait
// for room or data parks on a WaitingSignal, which the queue fires on every
// landed push (DataReady), on a pop after a declared producer wait
// (RoomFreed) and on Abort — the same readiness protocol the executor's
// tasks park on.
#ifndef GENEALOG_TESTS_TESTING_QUEUE_SIGNAL_H_
#define GENEALOG_TESTS_TESTING_QUEUE_SIGNAL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "spe/batch_queue.h"

namespace genealog::testing {

class WaitingSignal final : public StreamQueue::Signal {
 public:
  explicit WaitingSignal(StreamQueue& queue) : queue_(queue) {
    queue_.set_signal(this);
  }
  ~WaitingSignal() override { queue_.set_signal(nullptr); }

  void DataReady() override { Bump(); }
  void RoomFreed() override { Bump(); }

  // Pushes `batch`, parking while the queue is full. Returns false once the
  // queue was aborted (the batch is dropped).
  bool Push(StreamBatch batch, size_t max_coalesce) {
    for (;;) {
      const uint64_t seen = Epoch();
      PushStatus status = queue_.TryPush(batch, max_coalesce);
      if (status == PushStatus::kFull) {
        queue_.MarkProducerWaiting();
        status = queue_.TryPush(batch, max_coalesce);
      }
      if (status != PushStatus::kFull) return status == PushStatus::kOk;
      WaitPast(seen);
    }
  }

  // Pops up to `max_batches` batches into `out`, parking while the queue is
  // empty: reports kPopped, or kAborted once aborted and drained.
  PopStatus Pop(std::vector<StreamBatch>& out, size_t max_batches) {
    for (;;) {
      const uint64_t seen = Epoch();
      const PopStatus status = queue_.PopSome(out, max_batches);
      if (status != PopStatus::kEmpty) return status;
      WaitPast(seen);
    }
  }

 private:
  uint64_t Epoch() {
    std::lock_guard lock(mu_);
    return epoch_;
  }
  void WaitPast(uint64_t seen) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return epoch_ != seen; });
  }
  void Bump() {
    {
      std::lock_guard lock(mu_);
      ++epoch_;
    }
    cv_.notify_all();
  }

  StreamQueue& queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;
};

}  // namespace genealog::testing

#endif  // GENEALOG_TESTS_TESTING_QUEUE_SIGNAL_H_
