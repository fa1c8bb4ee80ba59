// StreamQueue coalescing and the endpoint-level batching protocol built on it.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "spe/batch_queue.h"
#include "spe/node.h"
#include "testing/queue_signal.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;

TEST(StreamQueueCoalesceTest, ConsecutiveWatermarksCollapse) {
  auto queue = std::make_unique<StreamQueue>(64);
  Endpoint e{queue.get(), 0};
  e.PushWatermark(5);
  e.PushWatermark(9);
  e.PushWatermark(7);  // lower: still merged, keeps max
  EXPECT_EQ(queue->Size(), 1u);
  auto batch = queue->TryPop();
  ASSERT_TRUE(batch.has_value());
  EXPECT_TRUE(batch->tuples.empty());
  EXPECT_EQ(batch->watermark, 9);
}

TEST(StreamQueueCoalesceTest, DifferentPortsDoNotMerge) {
  auto queue = std::make_unique<StreamQueue>(64);
  Endpoint a{queue.get(), 0};
  Endpoint b{queue.get(), 1};
  a.PushWatermark(5);
  b.PushWatermark(6);
  EXPECT_EQ(queue->Size(), 2u);
}

TEST(StreamQueueCoalesceTest, WatermarkJoinsTailTupleBatch) {
  // A watermark following a tuple lands in the same batch (it applies after
  // the tuples), so the pair costs one queue slot.
  auto queue = std::make_unique<StreamQueue>(64);
  Endpoint e{queue.get(), 0};
  e.PushTuple(V(6, 1));
  e.PushWatermark(7);
  EXPECT_EQ(queue->Size(), 1u);
  auto batch = queue->TryPop();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->tuples.size(), 1u);
  EXPECT_EQ(batch->tuples[0]->ts, 6);
  EXPECT_EQ(batch->watermark, 7);
  EXPECT_FALSE(batch->flush);
}

TEST(StreamQueueCoalesceTest, TuplesNeverMergeAtBatchSizeOne) {
  // Batch size 1 reproduces the unbatched engine: every tuple is its own
  // queue entry.
  auto queue = std::make_unique<StreamQueue>(64);
  Endpoint e{queue.get(), 0, /*batch_size=*/1};
  e.PushTuple(V(1, 1));
  e.PushTuple(V(2, 2));
  e.PushTuple(V(3, 3));
  EXPECT_EQ(queue->Size(), 3u);
  EXPECT_EQ(queue->Weight(), 3u);
}

TEST(StreamQueueCoalesceTest, TuplesChunkUpToBatchSize) {
  auto queue = std::make_unique<StreamQueue>(64);
  Endpoint e{queue.get(), 0, /*batch_size=*/4};
  for (int i = 0; i < 10; ++i) {
    // Alternate tuple + watermark advance: the watermark flushes the pending
    // batch, and the queue glues the flushed slivers back together up to the
    // batch size.
    e.PushTuple(V(i, i));
    e.PushWatermark(i);
  }
  EXPECT_EQ(queue->Weight(), 10u);
  // 10 tuples in chunks of <= 4: at least three batches, far fewer than 20
  // unbatched entries.
  EXPECT_LE(queue->Size(), 4u);
  int64_t last_ts = -1;
  size_t total = 0;
  while (auto batch = queue->TryPop()) {
    ASSERT_LE(batch->tuples.size(), 4u);
    for (const TuplePtr& t : batch->tuples) {
      EXPECT_GT(t->ts, last_ts);  // stream order survives coalescing
      last_ts = t->ts;
      ++total;
    }
  }
  EXPECT_EQ(total, 10u);
}

TEST(StreamQueueCoalesceTest, FlushMergesIntoTailButSealsIt) {
  auto queue = std::make_unique<StreamQueue>(64);
  Endpoint e{queue.get(), 0, /*batch_size=*/8};
  e.PushTuple(V(1, 1));
  e.PushFlush();
  EXPECT_EQ(queue->Size(), 1u);
  {
    auto batch = queue->TryPop();
    ASSERT_TRUE(batch.has_value());
    EXPECT_TRUE(batch->flush);
  }
  // Nothing may merge into (or after) a flushed tail on the same port.
  Endpoint f{queue.get(), 0, /*batch_size=*/8};
  f.PushFlush();
  f.PushWatermark(3);
  EXPECT_EQ(queue->Size(), 2u);
}

TEST(StreamQueueCoalesceTest, WatermarkMergesIntoFullQueueWithoutSpilling) {
  auto queue = std::make_unique<StreamQueue>(2);
  Endpoint e{queue.get(), 0};
  e.PushTuple(V(1, 1));
  e.PushTuple(V(2, 2));  // queue now at weight capacity
  // The watermark adds no weight: it must land without spilling.
  EXPECT_TRUE(e.PushWatermark(9));
  EXPECT_FALSE(e.HasSpill());
  EXPECT_EQ(queue->Weight(), 2u);
  // Drain: last batch carries the watermark.
  queue->TryPop();
  auto tail = queue->TryPop();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->watermark, 9);
}

TEST(StreamQueueCoalesceTest, AbortedQueueRejects) {
  auto queue = std::make_unique<StreamQueue>(2);
  queue->Abort();
  Endpoint e{queue.get(), 0};
  EXPECT_FALSE(e.PushWatermark(1));
  EXPECT_FALSE(e.PushTuple(V(1, 1)));
}

TEST(StreamQueueCoalesceTest, OversizedBatchEntersEmptyQueue) {
  // A batch bigger than the queue capacity must not deadlock: it is admitted
  // once the queue is empty. ForwardBatch hands a chunk at least as large as
  // the flush threshold over whole.
  auto queue = std::make_unique<StreamQueue>(2);
  Endpoint e{queue.get(), 0, /*batch_size=*/8};
  StreamBatch batch;
  for (int i = 0; i < 8; ++i) batch.tuples.push_back(V(i, i));
  EXPECT_TRUE(e.ForwardBatch(std::move(batch)));  // 8 tuples > cap 2
  EXPECT_EQ(queue->Size(), 1u);
  EXPECT_EQ(queue->Weight(), 8u);
}

// Contract regression: a producer whose batch spilled against a full edge
// when Abort() fires must not land it — in particular it must not coalesce
// the spill into the (now dead) tail once capacity frees up during
// teardown. The schedule arranges exactly that temptation: the spilled
// batch is coalescible with the tail, and a post-abort pop frees enough
// weight that a retry-coalesce would succeed if it were attempted.
TEST(AbortDuringSpillTest, DoesNotCoalesceIntoDeadTail) {
  auto queue = std::make_unique<StreamQueue>(2);
  StreamBatch head;
  head.port = 1;
  head.tuples.push_back(V(1, 1));
  ASSERT_EQ(queue->TryPush(head, 8), PushStatus::kOk);
  // Two weight-1 batches fill the queue; the third tuple is coalescible
  // with the tail (same port) but the merged tail would exceed capacity, so
  // the endpoint spills it and declares itself waiting.
  Endpoint e{queue.get(), 0, /*batch_size=*/8};
  ASSERT_TRUE(e.PushTuple(V(2, 2)));
  ASSERT_FALSE(e.HasSpill());
  ASSERT_TRUE(e.PushTuple(V(3, 3)));
  ASSERT_TRUE(e.Flush());  // the adaptive threshold may still hold it
  ASSERT_TRUE(e.HasSpill());
  // Tear the queue down and free capacity: after the pop, weight 1 + the
  // spilled batch's 1 fits, and the tail (port 0, one tuple) would accept
  // the merge — were it not dead. The re-offer discards the spill.
  queue->Abort();
  auto popped = queue->TryPop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->port, 1);
  EXPECT_TRUE(e.DrainSpill());
  EXPECT_FALSE(e.HasSpill());
  auto tail = queue->TryPop();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->port, 0);
  EXPECT_EQ(tail->tuples.size(), 1u) << "post-abort push coalesced into the "
                                        "dead tail";
  EXPECT_EQ(tail->tuples[0]->ts, 2);
  EXPECT_FALSE(queue->TryPop().has_value());
  // And a fresh push after the teardown must fail without queueing anything.
  Endpoint late{queue.get(), 0};
  EXPECT_FALSE(late.PushTuple(V(9, 9)));
  EXPECT_FALSE(queue->TryPop().has_value());
}

TEST(StreamQueueCoalesceTest, ConcurrentProducersStayConsistent) {
  auto queue = std::make_unique<StreamQueue>(4096);
  testing::WaitingSignal signal(*queue);
  constexpr int kPerProducer = 20000;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&queue, p] {
      Endpoint e{queue.get(), static_cast<uint16_t>(p)};
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(e.PushWatermark(i));
        // Interleaved ports can fill the queue: re-offer the spill, as the
        // executor does before it steps a producer again.
        while (!e.DrainSpill()) std::this_thread::yield();
      }
    });
  }
  // Concurrent consumer: per-port watermarks must arrive nondecreasing, and
  // the final watermark of every port must be delivered (a coalesced tail is
  // never lost). The consumer parks on the signal while the queue is
  // empty, and reads until it has seen every port's last value.
  int64_t last_wm[4] = {-1, -1, -1, -1};
  int ports_finished = 0;
  std::vector<StreamBatch> burst;
  while (ports_finished < 4) {
    burst.clear();
    ASSERT_EQ(signal.Pop(burst, 1), PopStatus::kPopped);
    const StreamBatch& batch = burst[0];
    ASSERT_TRUE(batch.has_watermark());
    ASSERT_GE(batch.watermark, last_wm[batch.port]);
    last_wm[batch.port] = batch.watermark;
    if (batch.watermark == kPerProducer - 1) ++ports_finished;
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(last_wm[p], kPerProducer - 1);
  }
}

}  // namespace
}  // namespace genealog
