// Concurrent-traversal stress: several threads walk overlapping contribution
// graphs at once, each with its own TraversalScratch, the way parallel SUs
// and concurrent queries do. A walk only reads the shared tuples (U1/U2 and
// the N-chain's acquire loads of next()) and keeps its visited state in its
// own pointer set, so every call must return the exact single-threaded BFS
// sequence no matter how the threads interleave. Run under TSan in CI
// (repeated until-fail) to gate those concurrent read-only walks over shared
// N-chains.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "genealog/traversal.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

// A shared N-chained source run with a layer of aggregates whose windows
// overlap heavily, plus join diamonds on top — every thread's walk visits
// mostly the *same* tuples, maximizing sharing between concurrent walks.
struct SharedGraphs {
  std::vector<IntrusivePtr<ValueTuple>> all;
  std::vector<Tuple*> roots;
};

SharedGraphs MakeSharedGraphs(int n_sources, int n_roots) {
  SharedGraphs g;
  for (int i = 0; i < n_sources; ++i) {
    auto t = V(i, i);
    t->kind = TupleKind::kSource;
    g.all.push_back(std::move(t));
  }
  for (int i = 0; i + 1 < n_sources; ++i) {
    g.all[static_cast<size_t>(i)]->try_set_next(
        g.all[static_cast<size_t>(i) + 1].get());
  }
  const size_t chain = static_cast<size_t>(n_sources);
  for (int r = 0; r < n_roots; ++r) {
    // Aggregate over an overlapping window of the shared source chain.
    auto agg = V(1000 + r, 1000 + r);
    agg->kind = TupleKind::kAggregate;
    const size_t lo = static_cast<size_t>(r) % (chain / 2);
    const size_t hi = chain - 1 - (static_cast<size_t>(r) % 3);
    agg->set_u2(g.all[lo].get());
    agg->set_u1(g.all[hi].get());
    // A join of this aggregate with a map over a shared source.
    auto map = V(2000 + r, 2000 + r);
    map->kind = TupleKind::kMap;
    map->set_u1(g.all[static_cast<size_t>(r) % chain].get());
    auto join = V(3000 + r, 3000 + r);
    join->kind = TupleKind::kJoin;
    join->set_u1(agg.get());
    join->set_u2(map.get());
    g.all.push_back(std::move(agg));
    g.all.push_back(std::move(map));
    g.roots.push_back(join.get());
    g.all.push_back(std::move(join));
  }
  return g;
}

TEST(TraversalConcurrencyTest, OverlappingWalksReturnExactSequences) {
  SharedGraphs g = MakeSharedGraphs(/*n_sources=*/96, /*n_roots=*/8);

  // Single-threaded reference per root.
  std::vector<std::vector<Tuple*>> want;
  {
    TraversalScratch scratch;
    for (Tuple* root : g.roots) {
      std::vector<Tuple*> result;
      FindProvenance(root, result, scratch);
      want.push_back(std::move(result));
    }
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TraversalScratch scratch;
      std::vector<Tuple*> result;
      for (int i = 0; i < kIters; ++i) {
        const size_t r = static_cast<size_t>(t + i) % g.roots.size();
        result.clear();
        FindProvenance(g.roots[r], result, scratch);
        if (result != want[r]) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Same stress with two SUs' worth of threads pinned to *the same root* — the
// worst case for sharing, since both walks read every node of one graph.
TEST(TraversalConcurrencyTest, TwoWalkersOneGraph) {
  SharedGraphs g = MakeSharedGraphs(/*n_sources=*/192, /*n_roots=*/1);
  std::vector<Tuple*> want;
  {
    TraversalScratch scratch;
    FindProvenance(g.roots[0], want, scratch);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      TraversalScratch scratch;
      std::vector<Tuple*> result;
      for (int i = 0; i < 3000; ++i) {
        result.clear();
        FindProvenance(g.roots[0], result, scratch);
        if (result != want) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace genealog
