#include "core/tuple.h"

#include <gtest/gtest.h>

#include "common/memory_accounting.h"
#include "common/tuple_pool.h"
#include "lr/linear_road.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

class TupleTest : public ::testing::Test {
 protected:
  void SetUp() override { base_count_ = mem::LiveTupleCount(); }
  int64_t LiveDelta() const { return mem::LiveTupleCount() - base_count_; }
  int64_t base_count_ = 0;
};

TEST_F(TupleTest, MakeTupleSetsTimestampAndDefaults) {
  auto t = V(42, 7);
  EXPECT_EQ(t->ts, 42);
  EXPECT_EQ(t->value, 7);
  EXPECT_EQ(t->id, 0u);
  EXPECT_EQ(t->kind, TupleKind::kSource);
  EXPECT_EQ(t->u1(), nullptr);
  EXPECT_EQ(t->u2(), nullptr);
  EXPECT_EQ(t->next(), nullptr);
  EXPECT_EQ(t->baseline_annotation(), nullptr);
}

TEST_F(TupleTest, LiveTupleCountTracksLifetime) {
  {
    auto a = V(1, 1);
    auto b = V(2, 2);
    EXPECT_EQ(LiveDelta(), 2);
  }
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(TupleTest, U1KeepsPointeeAlive) {
  auto child = V(1, 10);
  auto parent = V(2, 20);
  parent->set_u1(child.get());
  child.reset();
  EXPECT_EQ(LiveDelta(), 2);  // child kept alive through parent's U1
  ASSERT_NE(parent->u1(), nullptr);
  EXPECT_EQ(static_cast<ValueTuple*>(parent->u1())->value, 10);
  parent.reset();
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(TupleTest, SetU1ReplacementReleasesOld) {
  auto a = V(1, 1);
  auto b = V(2, 2);
  auto parent = V(3, 3);
  parent->set_u1(a.get());
  parent->set_u1(b.get());
  a.reset();
  EXPECT_EQ(LiveDelta(), 2);  // a was released when replaced
  parent->set_u1(nullptr);
  b.reset();
  EXPECT_EQ(LiveDelta(), 1);
}

TEST_F(TupleTest, TrySetNextIsSetOnce) {
  auto a = V(1, 1);
  auto b = V(2, 2);
  auto c = V(3, 3);
  EXPECT_TRUE(a->try_set_next(b.get()));
  EXPECT_EQ(a->next(), b.get());
  // Re-linking the same successor (sliding window re-fire) is a no-op success.
  EXPECT_TRUE(a->try_set_next(b.get()));
  EXPECT_EQ(a->next(), b.get());
  (void)c;
}

TEST_F(TupleTest, NextChainKeepsChainAlive) {
  auto head = V(0, 0);
  {
    auto mid = V(1, 1);
    auto tail = V(2, 2);
    head->try_set_next(mid.get());
    mid->try_set_next(tail.get());
  }
  EXPECT_EQ(LiveDelta(), 3);
  EXPECT_EQ(static_cast<ValueTuple*>(head->next()->next())->value, 2);
  head.reset();
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(TupleTest, LongChainReleaseDoesNotOverflowStack) {
  // 200k-element N-chain: recursive destruction would smash the stack.
  constexpr int kN = 200000;
  auto head = V(0, 0);
  IntrusivePtr<ValueTuple> prev = head;
  for (int i = 1; i < kN; ++i) {
    auto t = V(i, i);
    prev->try_set_next(t.get());
    prev = t;
  }
  prev.reset();
  EXPECT_EQ(LiveDelta(), kN);
  head.reset();
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(TupleTest, DiamondGraphReleasesOnce) {
  // sink -> {left, right} -> shared source.
  auto source = V(0, 0);
  auto left = V(1, 1);
  auto right = V(1, 2);
  auto sink = V(2, 3);
  left->set_u1(source.get());
  right->set_u1(source.get());
  sink->set_u1(left.get());
  sink->set_u2(right.get());
  source.reset();
  left.reset();
  right.reset();
  EXPECT_EQ(LiveDelta(), 4);
  sink.reset();
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(TupleTest, CloneCopiesPayloadNotMeta) {
  auto parent = V(1, 1);
  auto t = V(5, 99);
  t->id = 1234;
  t->stimulus = 777;
  t->kind = TupleKind::kAggregate;
  t->set_u1(parent.get());
  t->set_baseline_annotation({1, 2, 3});

  TuplePtr clone = t->CloneTuple();
  EXPECT_EQ(clone->ts, 5);
  EXPECT_EQ(static_cast<ValueTuple*>(clone.get())->value, 99);
  EXPECT_EQ(clone->stimulus, 777);
  // Identity and provenance are not part of the payload copy.
  EXPECT_EQ(clone->id, 0u);
  EXPECT_EQ(clone->kind, TupleKind::kSource);
  EXPECT_EQ(clone->u1(), nullptr);
  EXPECT_EQ(clone->baseline_annotation(), nullptr);
}

TEST_F(TupleTest, MemoryAccountingFollowsLifetime) {
  mem::SetCurrentInstance(7);
  const int64_t before = mem::LiveBytes(7);
  {
    auto t = V(1, 1);
    EXPECT_EQ(mem::LiveBytes(7) - before,
              static_cast<int64_t>(sizeof(ValueTuple)));
  }
  EXPECT_EQ(mem::LiveBytes(7), before);
  mem::SetCurrentInstance(0);
}

TEST_F(TupleTest, AnnotationBytesAreAccounted) {
  mem::SetCurrentInstance(8);
  const int64_t before = mem::LiveBytes(8);
  {
    auto t = V(1, 1);
    const int64_t with_tuple = mem::LiveBytes(8);
    t->set_baseline_annotation(std::vector<uint64_t>{1, 2, 3, 4});
    EXPECT_GT(mem::LiveBytes(8), with_tuple);
  }
  EXPECT_EQ(mem::LiveBytes(8), before);
  mem::SetCurrentInstance(0);
}

TEST_F(TupleTest, OwnerInstanceStampedAtCreation) {
  mem::SetCurrentInstance(4);
  auto t = V(1, 1);
  EXPECT_EQ(t->owner_instance(), 4);
  mem::SetCurrentInstance(0);
}

TEST_F(TupleTest, AggregateChainSharedByTwoOutputsSurvivesPartialRelease) {
  // Two sliding-window outputs share part of an N-chain:
  //   w1 covers t1..t3, w2 covers t2..t4.
  auto t1 = V(1, 1);
  auto t2 = V(2, 2);
  auto t3 = V(3, 3);
  auto t4 = V(4, 4);
  t1->try_set_next(t2.get());
  t2->try_set_next(t3.get());
  t3->try_set_next(t4.get());
  auto w1 = V(0, 100);
  w1->kind = TupleKind::kAggregate;
  w1->set_u2(t1.get());
  w1->set_u1(t3.get());
  auto w2 = V(2, 200);
  w2->kind = TupleKind::kAggregate;
  w2->set_u2(t2.get());
  w2->set_u1(t4.get());

  t1.reset();
  t2.reset();
  t3.reset();
  t4.reset();
  EXPECT_EQ(LiveDelta(), 6);
  w1.reset();
  // t1 freed (only w1 referenced it); t2..t4 still reachable from w2.
  EXPECT_EQ(LiveDelta(), 4);
  w2.reset();
  EXPECT_EQ(LiveDelta(), 0);
}

// The header is the paper's constant per-tuple provenance cost plus the
// engine's bookkeeping; a new field silently moves schema types up a pool
// size class. Q1's aggregate output must stay in the 128-byte class.
TEST(TupleHeaderTest, HeaderSizeAndSizeClassArePinned) {
  EXPECT_EQ(sizeof(Tuple), 96u);
  EXPECT_EQ(pool::SizeClassFor(sizeof(lr::StoppedCarStats)),
            pool::SizeClassFor(128));
}

}  // namespace
}  // namespace genealog
