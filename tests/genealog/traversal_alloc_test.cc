// Steady-state allocation regression for the traversal scratch: after one
// warm-up traversal of the workload's largest graph, repeated traversals —
// same size or smaller — must perform zero heap growths. The
// old std::unordered_set scratch rehashed every node on every call after
// clear(); the generation-tagged pointer set and the recycled work ring are
// pinned here via the scratch's grow counters and the process-wide
// mem::TraversalScratchBytes gauge.
#include <gtest/gtest.h>

#include <vector>

#include "common/memory_accounting.h"
#include "genealog/traversal.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

struct Graph {
  std::vector<IntrusivePtr<ValueTuple>> all;
  Tuple* root = nullptr;
};

// An aggregate window over an n-tuple N-chain: the paper's largest graphs
// (Q3's hundreds of contributing tuples) are this shape.
Graph AggregateChain(int n) {
  Graph g;
  for (int i = 0; i < n; ++i) {
    auto t = V(i, i);
    t->kind = TupleKind::kSource;
    g.all.push_back(std::move(t));
  }
  for (int i = 0; i + 1 < n; ++i) {
    g.all[static_cast<size_t>(i)]->try_set_next(
        g.all[static_cast<size_t>(i) + 1].get());
  }
  auto agg = V(0, 999);
  agg->kind = TupleKind::kAggregate;
  agg->set_u2(g.all.front().get());
  agg->set_u1(g.all.back().get());
  g.root = agg.get();
  g.all.push_back(std::move(agg));
  return g;
}

TEST(TraversalAllocTest, ZeroGrowthsAfterWarmUp) {
  Graph big = AggregateChain(512);
  Graph small = AggregateChain(24);
  TraversalScratch scratch;
  std::vector<Tuple*> result;
  result.reserve(1024);

  // Warm-up: grows the ring and the pointer set.
  result.clear();
  FindProvenance(big.root, result, scratch);
  ASSERT_EQ(result.size(), 512u);

  const uint64_t grows = scratch.grows();
  const int64_t scratch_bytes = mem::TraversalScratchBytes();
  for (int i = 0; i < 1000; ++i) {
    result.clear();
    FindProvenance(big.root, result, scratch);
    ASSERT_EQ(result.size(), 512u);
    result.clear();
    FindProvenance(small.root, result, scratch);
    ASSERT_EQ(result.size(), 24u);
  }
  EXPECT_EQ(scratch.grows(), grows)
      << "traversal scratch grew after warm-up";
  EXPECT_EQ(mem::TraversalScratchBytes(), scratch_bytes)
      << "process-wide scratch gauge moved after warm-up";
}

// The small-buffer case: a ≤32-node graph must never touch the heap at all.
TEST(TraversalAllocTest, SmallGraphStaysInline) {
  Graph g = AggregateChain(30);
  TraversalScratch scratch;
  std::vector<Tuple*> result;
  result.reserve(64);
  const int64_t before = mem::TraversalScratchBytes();
  for (int i = 0; i < 100; ++i) {
    result.clear();
    FindProvenance(g.root, result, scratch);
    ASSERT_EQ(result.size(), 30u);
  }
  EXPECT_EQ(scratch.grows(), 0u);
  EXPECT_EQ(mem::TraversalScratchBytes(), before);
  EXPECT_EQ(scratch.visited_capacity(),
            traversal_internal::PointerSet::kInlineSlots);
  EXPECT_EQ(scratch.ring_capacity(), traversal_internal::WorkRing::kInlineCap);
}

}  // namespace
}  // namespace genealog
