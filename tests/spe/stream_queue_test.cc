// StreamQueue semantics and stress.
//
// Single-thread tests pin the parts of the queue contract that
// coalesce_test does not (weight counting, weight-capped merges, abort
// waking parked threads) and the readiness hook the executor parks on. The
// stress tests run the dominant edge shape — one producer thread, one
// consumer thread, with randomized stalls on both sides — over up to a
// million mixed batches and assert the stream invariants: no tuple lost, no
// tuple reordered or duplicated, watermarks nondecreasing, flush delivered
// last, and an abort leaves an exact prefix to drain. The threads park on a
// test Signal between TryPush/PopSome attempts. CI repeats them under
// -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "spe/batch_queue.h"
#include "spe/node.h"
#include "testing/queue_signal.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::WaitingSignal;

constexpr size_t kAll = std::numeric_limits<size_t>::max();

PushStatus Offer(StreamQueue& queue, StreamBatch batch, size_t max_coalesce) {
  return queue.TryPush(batch, max_coalesce);
}

TEST(StreamQueueTest, WeightCountsTuplesAndControlBatches) {
  StreamQueue queue(64);
  StreamBatch data;
  data.tuples.push_back(V(1, 1));
  data.tuples.push_back(V(2, 2));
  data.tuples.push_back(V(3, 3));
  ASSERT_EQ(Offer(queue, std::move(data), 3), PushStatus::kOk);
  EXPECT_EQ(queue.Weight(), 3u);  // tuples are the unit
  StreamBatch control;
  control.port = 1;  // different port: no merge
  control.watermark = 9;
  ASSERT_EQ(Offer(queue, std::move(control), 3), PushStatus::kOk);
  EXPECT_EQ(queue.Weight(), 4u);  // control-only batches weigh 1
  EXPECT_EQ(queue.ApproxWeight(), 4u);
  EXPECT_EQ(queue.Size(), 2u);
  queue.TryPop();
  EXPECT_EQ(queue.Weight(), 1u);
  queue.TryPop();
  EXPECT_EQ(queue.Weight(), 0u);
  EXPECT_EQ(queue.ApproxWeight(), 0u);
}

TEST(StreamQueueTest, MergeUpToWeightCapacity) {
  StreamQueue queue(3);
  StreamBatch two;
  two.tuples.push_back(V(1, 1));
  two.tuples.push_back(V(2, 2));
  ASSERT_EQ(Offer(queue, std::move(two), 8), PushStatus::kOk);
  // 2+1 = 3 <= 3: merges.
  ASSERT_EQ(Offer(queue, StreamBatch::MakeTuple(V(3, 3)), 8), PushStatus::kOk);
  EXPECT_EQ(queue.Size(), 1u);
  EXPECT_EQ(queue.Weight(), 3u);
}

TEST(StreamQueueTest, MergeRefusedByWeightLandsAsOwnBatch) {
  StreamQueue queue(3);
  StreamBatch two;
  two.tuples.push_back(V(1, 1));
  two.tuples.push_back(V(2, 2));
  ASSERT_EQ(Offer(queue, std::move(two), 8), PushStatus::kOk);
  // 2+2 tuples fit max_coalesce 8 but would exceed weight capacity 3: the
  // merge is refused, and the non-empty queue has no room for the batch,
  // which stays with the producer untouched.
  StreamBatch more;
  more.tuples.push_back(V(3, 3));
  more.tuples.push_back(V(4, 4));
  EXPECT_EQ(queue.TryPush(more, 8), PushStatus::kFull);
  ASSERT_EQ(more.tuples.size(), 2u);
  EXPECT_EQ(queue.Size(), 1u);
  EXPECT_EQ(queue.Weight(), 2u);
  // Once the consumer drained, the retry lands as its own batch.
  auto first = queue.TryPop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tuples.size(), 2u);  // unmerged: capacity held
  EXPECT_EQ(first->tuples[0]->ts, 1);
  ASSERT_EQ(queue.TryPush(more, 8), PushStatus::kOk);
  auto second = queue.TryPop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tuples.size(), 2u);
  EXPECT_EQ(second->tuples[0]->ts, 3);
}

TEST(StreamQueueTest, AbortRejectsPushAndDrainsPops) {
  StreamQueue queue(8);
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_EQ(Offer(queue, StreamBatch::MakeTuple(V(i, i)), 1),
              PushStatus::kOk);
  }
  queue.Abort();
  EXPECT_EQ(Offer(queue, StreamBatch::MakeTuple(V(4, 4)), 1),
            PushStatus::kAborted);
  // Post-abort pushes must not have coalesced into the dead tail either.
  auto a = queue.TryPop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->tuples.size(), 1u);
  // The pop returns the residue first, bounded by its budget, and only then
  // reports the abort.
  std::vector<StreamBatch> rest;
  ASSERT_EQ(queue.PopSome(rest, 1), PopStatus::kPopped);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].tuples[0]->ts, 2);
  ASSERT_EQ(queue.PopSome(rest, kAll), PopStatus::kPopped);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[1].tuples.size(), 1u);
  EXPECT_FALSE(queue.TryPop().has_value());
  EXPECT_EQ(queue.PopSome(rest, kAll), PopStatus::kAborted);
  EXPECT_EQ(rest.size(), 2u);
}

TEST(StreamQueueTest, AbortWakesParkedProducer) {
  StreamQueue queue(1);
  WaitingSignal signal(queue);
  ASSERT_TRUE(signal.Push(StreamBatch::MakeTuple(V(1, 1)), 1));  // full
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    StreamBatch b = StreamBatch::MakeTuple(V(2, 2));
    b.port = 1;  // different port: cannot coalesce, must wait for weight
    push_result.store(signal.Push(std::move(b), 1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  queue.Abort();
  producer.join();
  EXPECT_FALSE(push_result.load());
  // The parked batch was dropped, not queued: only the pre-abort batch
  // drains.
  auto batch = queue.TryPop();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->tuples[0]->ts, 1);
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(StreamQueueTest, AbortWakesParkedConsumer) {
  StreamQueue queue(4);
  WaitingSignal signal(queue);
  std::thread consumer([&] {
    // Parks while empty, then reports the abort.
    std::vector<StreamBatch> out;
    EXPECT_EQ(signal.Pop(out, kAll), PopStatus::kAborted);
    EXPECT_TRUE(out.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  queue.Abort();
  consumer.join();
}

// --- readiness hook ----------------------------------------------------------

struct CountingSignal final : StreamQueue::Signal {
  int data_ready = 0;
  int room_freed = 0;
  void DataReady() override { ++data_ready; }
  void RoomFreed() override { ++room_freed; }
};

TEST(StreamQueueSignalTest, PushFiresDataReadyWaitingPopFiresRoomFreedOnce) {
  StreamQueue queue(1);
  CountingSignal signal;
  queue.set_signal(&signal);

  // Every landed push is data, merged or not; a pop with no waiting
  // producer owes nobody a RoomFreed.
  ASSERT_EQ(Offer(queue, StreamBatch::MakeTuple(V(1, 1)), 1),
            PushStatus::kOk);
  EXPECT_EQ(signal.data_ready, 1);
  // Merges.
  ASSERT_EQ(Offer(queue, StreamBatch::MakeWatermark(5), 1), PushStatus::kOk);
  EXPECT_EQ(signal.data_ready, 2);
  ASSERT_TRUE(queue.TryPop().has_value());
  EXPECT_EQ(signal.room_freed, 0);

  // Fill, then the spill protocol: kFull, declare, retry, still kFull.
  StreamBatch head = StreamBatch::MakeTuple(V(6, 6));
  ASSERT_EQ(queue.TryPush(head, 1), PushStatus::kOk);
  EXPECT_EQ(signal.data_ready, 3);
  StreamBatch blocked = StreamBatch::MakeTuple(V(7, 7));
  blocked.port = 1;
  ASSERT_EQ(queue.TryPush(blocked, 1), PushStatus::kFull);
  queue.MarkProducerWaiting();
  ASSERT_EQ(queue.TryPush(blocked, 1), PushStatus::kFull);
  EXPECT_EQ(signal.data_ready, 3);  // a refused push is not data

  // The first pop after the declaration claims it: exactly one RoomFreed.
  std::vector<StreamBatch> out;
  ASSERT_EQ(queue.PopSome(out, 8), PopStatus::kPopped);
  EXPECT_EQ(signal.room_freed, 1);
  ASSERT_EQ(queue.TryPush(blocked, 1), PushStatus::kOk);
  EXPECT_EQ(signal.data_ready, 4);
  ASSERT_EQ(queue.PopSome(out, 8), PopStatus::kPopped);
  EXPECT_EQ(signal.room_freed, 1);  // the claim was spent
  EXPECT_EQ(out.size(), 2u);

  // Abort wakes the consumer, and a declared producer, once.
  queue.MarkProducerWaiting();
  queue.Abort();
  EXPECT_EQ(signal.data_ready, 5);
  EXPECT_EQ(signal.room_freed, 2);
  EXPECT_EQ(queue.PopSome(out, 8), PopStatus::kAborted);
  EXPECT_EQ(signal.room_freed, 2);
  queue.set_signal(nullptr);
}

// --- two-thread stress -------------------------------------------------------

struct StressConfig {
  uint64_t seed = 1;
  int batches = 1'000'000;
  size_t capacity = 256;
  size_t max_coalesce = 16;
  bool use_pop_some = true;
};

// Producer: `batches` randomized batches — ~70% data (1-3 tuples carrying a
// global sequence number in `value`), ~30% watermark advances — with
// occasional stalls, then a final flush. Consumer: single-batch pops or
// whole-backlog PopSome bursts, with its own stalls. Both park on the test
// Signal while the queue is full or empty. Asserts the full stream contract
// on the consumer side.
void RunStress(const StressConfig& config) {
  StreamQueue queue(config.capacity);
  WaitingSignal signal(queue);

  std::thread producer([&] {
    SplitMix64 rng(config.seed);
    int64_t seq = 0;
    int64_t ts = 0;
    for (int i = 0; i < config.batches; ++i) {
      if (rng.UniformInt(0, 9) < 7) {
        StreamBatch batch;
        const int n = static_cast<int>(rng.UniformInt(1, 3));
        for (int k = 0; k < n; ++k) {
          batch.tuples.push_back(V(ts, seq++));
          ts += rng.UniformInt(0, 1);
        }
        ASSERT_TRUE(signal.Push(std::move(batch), config.max_coalesce));
      } else {
        // Watermark at the highest emitted ts: nondecreasing by construction.
        ASSERT_TRUE(signal.Push(StreamBatch::MakeWatermark(ts),
                                config.max_coalesce));
      }
      if (rng.UniformInt(0, 999) == 0) std::this_thread::yield();
      if (rng.UniformInt(0, 9999) == 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.UniformInt(1, 50)));
      }
    }
    ASSERT_TRUE(signal.Push(StreamBatch::MakeFlush(), config.max_coalesce));
  });

  SplitMix64 rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  int64_t next_seq = 0;
  int64_t last_ts = 0;
  int64_t last_wm = kNoWatermark;
  bool flushed = false;
  std::vector<StreamBatch> burst;
  while (!flushed) {
    burst.clear();
    const size_t budget =
        config.use_pop_some && rng.UniformInt(0, 1) == 0 ? kAll : 1;
    ASSERT_EQ(signal.Pop(burst, budget), PopStatus::kPopped);
    for (StreamBatch& batch : burst) {
      ASSERT_FALSE(flushed) << "batch after flush";
      ASSERT_LE(batch.tuples.size(), config.max_coalesce)
          << "merged past the coalescing cap";
      for (const TuplePtr& t : batch.tuples) {
        const auto& v = static_cast<const testing::ValueTuple&>(*t);
        ASSERT_EQ(v.value, next_seq) << "lost/reordered/duplicated tuple";
        ++next_seq;
        ASSERT_GE(t->ts, last_ts) << "timestamp order broken";
        last_ts = t->ts;
        if (last_wm != kNoWatermark) {
          ASSERT_GE(t->ts, last_wm) << "tuple below watermark";
        }
      }
      if (batch.has_watermark()) {
        ASSERT_GE(batch.watermark, last_wm) << "watermark regressed";
        last_wm = batch.watermark;
      }
      flushed = batch.flush;
    }
    if (rng.UniformInt(0, 999) == 0) std::this_thread::yield();
    if (rng.UniformInt(0, 9999) == 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.UniformInt(1, 50)));
    }
  }
  producer.join();
  // Everything the producer emitted arrived, in order, before the flush.
  EXPECT_FALSE(queue.TryPop().has_value());
  EXPECT_GT(next_seq, 0);
  EXPECT_EQ(queue.Weight(), 0u);
}

TEST(StreamQueueStressTest, MillionMixedBatchesNoLossNoReorder) {
  StressConfig config;
  config.seed = 7;
  RunStress(config);
}

TEST(StreamQueueStressTest, TinyCapacityMaximizesBlocking) {
  // Capacity 2 forces constant producer/consumer parking: the RoomFreed and
  // DataReady wake paths get exercised thousands of times.
  StressConfig config;
  config.seed = 11;
  config.batches = 100'000;
  config.capacity = 2;
  config.max_coalesce = 4;
  RunStress(config);
}

TEST(StreamQueueStressTest, SingleBatchPopsKeepOrder) {
  StressConfig config;
  config.seed = 13;
  config.batches = 200'000;
  config.use_pop_some = false;
  RunStress(config);
}

TEST(StreamQueueStressTest, AbortMidStreamDrainsExactPrefix) {
  StreamQueue queue(64);
  WaitingSignal signal(queue);
  std::atomic<int64_t> pushed{0};
  std::thread producer([&] {
    int64_t seq = 0;
    for (;;) {
      if (!signal.Push(StreamBatch::MakeTuple(V(seq, seq)), 8)) break;
      pushed.store(++seq, std::memory_order_release);
    }
  });
  // Consume a while mid-flight, then tear the stream down and drain.
  int64_t next = 0;
  std::vector<StreamBatch> burst;
  while (next < 10'000) {
    burst.clear();
    ASSERT_EQ(signal.Pop(burst, 1), PopStatus::kPopped);
    for (const TuplePtr& t : burst[0].tuples) {
      ASSERT_EQ(static_cast<const testing::ValueTuple&>(*t).value, next);
      ++next;
    }
  }
  queue.Abort();
  producer.join();
  // The drain must be an exact prefix of the pushed sequence: every batch
  // that entered the queue arrives, in order, nothing after — the batch
  // whose push failed never entered. The pop returns the residue first and
  // only then reports the abort.
  burst.clear();
  while (signal.Pop(burst, kAll) == PopStatus::kPopped) {
    for (const StreamBatch& batch : burst) {
      for (const TuplePtr& t : batch.tuples) {
        ASSERT_EQ(static_cast<const testing::ValueTuple&>(*t).value, next);
        ++next;
      }
    }
    burst.clear();
  }
  EXPECT_EQ(next, pushed.load());
  EXPECT_FALSE(queue.TryPop().has_value());
}

}  // namespace
}  // namespace genealog
