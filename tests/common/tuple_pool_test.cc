// TuplePool unit tests: size-class selection, same-thread recycling,
// thread-cache overflow into the central free list, cross-thread release
// (the TSan-gated path: producer allocates, a downstream thread drops the
// last reference), recycled-memory reinitialization, and the heap fallback
// for oversize blocks.
#include "common/tuple_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/memory_accounting.h"
#include "core/tuple.h"
#include "core/tuple_crtp.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::ValueTuple;

// Larger than the biggest size class: must fall back to the heap.
struct OversizeTuple final : TupleCrtp<OversizeTuple, 0x7F01> {
  static constexpr const char* kTypeName = "test.Oversize";

  explicit OversizeTuple(int64_t ts) : TupleCrtp(ts) { payload[0] = 0; }

  char payload[600];

  const char* type_name() const override { return kTypeName; }
  void SerializePayload(ByteWriter&) const override {}
};
static_assert(sizeof(OversizeTuple) > pool::kMaxPooledBytes);

class TuplePoolTest : public ::testing::Test {
 protected:
  void SetUp() override { pool::ResetStats(); }
  void TearDown() override { pool::FlushThreadCache(); }
};

TEST_F(TuplePoolTest, SizeClassSelection) {
  EXPECT_EQ(pool::SizeClassFor(1), 0);
  EXPECT_EQ(pool::SizeClassFor(64), 0);
  EXPECT_EQ(pool::SizeClassFor(65), 1);
  EXPECT_EQ(pool::SizeClassFor(128), 1);
  EXPECT_EQ(pool::SizeClassFor(129), 2);
  EXPECT_EQ(pool::SizeClassFor(512), 7);
  EXPECT_EQ(pool::SizeClassFor(513), pool::kHeapClass);
  EXPECT_EQ(pool::ClassBytes(0), 64u);
  EXPECT_EQ(pool::ClassBytes(7), 512u);
  for (size_t bytes : {1u, 63u, 64u, 65u, 100u, 200u, 511u, 512u}) {
    const uint8_t cls = pool::SizeClassFor(bytes);
    ASSERT_NE(cls, pool::kHeapClass) << bytes;
    EXPECT_GE(pool::ClassBytes(cls), bytes) << bytes;
  }
}

TEST_F(TuplePoolTest, SameThreadReleaseRecyclesTheBlock) {
  void* first = nullptr;
  {
    auto t = MakeTuple<ValueTuple>(1, 42);
    first = t.get();
  }
  // The thread cache is LIFO, so the very next same-class allocation reuses
  // the released block.
  auto t2 = MakeTuple<ValueTuple>(2, 43);
  EXPECT_EQ(static_cast<void*>(t2.get()), first);
  const pool::Stats s = pool::GetStats();
  EXPECT_GE(s.pool_allocs, 2u);
  EXPECT_GE(s.recycled_allocs, 1u);
  EXPECT_GT(s.recycle_hit_rate(), 0.0);
}

TEST_F(TuplePoolTest, RecycledBlockIsFullyReinitialized) {
  auto source = MakeTuple<ValueTuple>(1, 7);
  void* released = nullptr;
  {
    auto derived = MakeTuple<ValueTuple>(2, 8);
    derived->kind = TupleKind::kMap;
    derived->set_u1(source.get());
    derived->set_baseline_annotation({1, 2, 3});
    released = derived.get();
  }
  auto fresh = MakeTuple<ValueTuple>(3, 9);
  ASSERT_EQ(static_cast<void*>(fresh.get()), released);
  // Placement construction must leave no stale provenance state behind.
  EXPECT_EQ(fresh->u1(), nullptr);
  EXPECT_EQ(fresh->u2(), nullptr);
  EXPECT_EQ(fresh->next(), nullptr);
  EXPECT_EQ(fresh->baseline_annotation(), nullptr);
  EXPECT_EQ(fresh->kind, TupleKind::kSource);
  EXPECT_EQ(fresh->id, 0u);
  EXPECT_EQ(fresh->ts, 3);
  EXPECT_EQ(fresh->value, 9);
}

TEST_F(TuplePoolTest, CacheOverflowSpillsToCentralFreeList) {
  // Far more than the thread cache holds: the overflow must land on the
  // central free list, where another thread can pick it up with no fresh
  // slab carving at all.
  constexpr int kTuples = 1000;
  std::vector<TuplePtr> live;
  live.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i) {
    live.push_back(MakeTuple<ValueTuple>(i, i));
  }
  live.clear();
  pool::ResetStats();

  std::thread other([] {
    std::vector<TuplePtr> mine;
    constexpr int kOther = 256;
    mine.reserve(kOther);
    for (int i = 0; i < kOther; ++i) {
      mine.push_back(MakeTuple<ValueTuple>(i, i));
    }
    mine.clear();
    pool::FlushThreadCache();
  });
  other.join();

  const pool::Stats s = pool::GetStats();
  EXPECT_EQ(s.pool_allocs, 256u);
  EXPECT_EQ(s.recycled_allocs, 256u);
  EXPECT_DOUBLE_EQ(s.recycle_hit_rate(), 1.0);
}

TEST_F(TuplePoolTest, CrossThreadReleaseIsSafeAndRecycles) {
  const int64_t live_before = mem::LiveTupleCount();
  // Producer (this thread) allocates; a consumer thread drops the last
  // reference — the block migrates to the consumer's cache and, via its
  // thread-exit flush, back to the central list for the producer to reuse.
  constexpr int kRounds = 50;
  constexpr int kPerRound = 64;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<TuplePtr> batch;
    batch.reserve(kPerRound);
    for (int i = 0; i < kPerRound; ++i) {
      auto t = MakeTuple<ValueTuple>(i, i);
      if (i > 0) t->set_u1(batch.front().get());  // a little graph structure
      batch.push_back(std::move(t));
    }
    std::thread consumer([batch = std::move(batch)]() mutable {
      batch.clear();
    });
    consumer.join();
  }
  EXPECT_EQ(mem::LiveTupleCount(), live_before);
  const pool::Stats s = pool::GetStats();
  EXPECT_GT(s.recycled_allocs, 0u);
}

TEST_F(TuplePoolTest, ManyThreadsChurnConcurrently) {
  // Allocation and release race across threads, with handoff: each worker
  // allocates a graph, passes it through a shared slot, and frees whatever
  // graph it picked up from another worker.
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<TuplePtr> slots(kThreads * kIters);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([w, &slots] {
      for (int i = 0; i < kIters; ++i) {
        auto t = MakeTuple<ValueTuple>(i, w);
        auto u = MakeTuple<ValueTuple>(i, w + 100);
        u->set_u1(t.get());
        slots[static_cast<size_t>(w * kIters + i)] = std::move(u);
      }
    });
  }
  for (auto& t : workers) t.join();
  workers.clear();
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([w, &slots] {
      // Free the slots another thread filled.
      const int victim = (w + 1) % kThreads;
      for (int i = 0; i < kIters; ++i) {
        slots[static_cast<size_t>(victim * kIters + i)].reset();
      }
      pool::FlushThreadCache();
    });
  }
  for (auto& t : workers) t.join();
}

TEST_F(TuplePoolTest, OversizeTuplesFallBackToHeap) {
  pool::ResetStats();
  {
    auto big = MakeTuple<OversizeTuple>(1);
    EXPECT_EQ(big->u1(), nullptr);
  }
  const pool::Stats s = pool::GetStats();
  EXPECT_EQ(s.pool_allocs, 0u);
  EXPECT_GE(s.heap_allocs, 1u);
}

TEST_F(TuplePoolTest, SlabAccountingIsVisible) {
  // Warm the pool, then confirm both stats and the memory-accounting gauge
  // report reserved slab bytes.
  std::vector<TuplePtr> live;
  for (int i = 0; i < 64; ++i) live.push_back(MakeTuple<ValueTuple>(i, i));
  live.clear();
  const pool::Stats s = pool::GetStats();
  EXPECT_GE(s.slabs, 1u);
  EXPECT_GT(s.slab_bytes, 0u);
  EXPECT_GE(mem::PoolSlabBytes(), static_cast<int64_t>(s.slab_bytes));
}

}  // namespace
}  // namespace genealog
