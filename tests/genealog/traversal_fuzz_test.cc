// Traversal equivalence fuzz: FindProvenance (open-addressing pointer set,
// flat work ring, scratch reused across calls) and a naive reference BFS
// (std::deque + std::unordered_set — the pre-optimization implementation,
// kept here as the executable spec of Listing 1) must produce identical
// result *sequences* on randomized contribution DAGs — shared subgraphs, join
// diamonds, and the stacked sliding-window N-chains (including single-tuple
// windows with extended chains) that broke the paper's Listing 1 as printed.
#include <gtest/gtest.h>

#include <deque>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "genealog/traversal.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

// --- naive reference BFS (the executable spec) -------------------------------

void RefEnqueue(Tuple* t, std::deque<Tuple*>& queue,
                std::unordered_set<const Tuple*>& visited) {
  if (t == nullptr) return;
  if (visited.insert(t).second) queue.push_back(t);
}

std::vector<Tuple*> ReferenceFindProvenance(Tuple* root) {
  std::vector<Tuple*> result;
  if (root == nullptr) return result;
  std::deque<Tuple*> queue;
  std::unordered_set<const Tuple*> visited;
  visited.insert(root);
  queue.push_back(root);
  while (!queue.empty()) {
    Tuple* t = queue.front();
    queue.pop_front();
    switch (t->kind) {
      case TupleKind::kSource:
      case TupleKind::kRemote:
        result.push_back(t);
        break;
      case TupleKind::kMap:
      case TupleKind::kMultiplex:
        RefEnqueue(t->u1(), queue, visited);
        break;
      case TupleKind::kJoin:
        RefEnqueue(t->u1(), queue, visited);
        RefEnqueue(t->u2(), queue, visited);
        break;
      case TupleKind::kAggregate: {
        Tuple* temp = t->u2();
        while (temp != nullptr && temp != t->u1()) {
          RefEnqueue(temp, queue, visited);
          temp = temp->next();
        }
        RefEnqueue(t->u1(), queue, visited);
        break;
      }
    }
  }
  return result;
}

// --- random contribution-graph generator -------------------------------------

// Builds a random DAG bottom-up: a pool of source tuples, then layers of
// operator tuples drawing U1/U2 from anything below them (sharing is the
// norm, so diamonds and cross-layer shortcuts abound). Aggregates consume a
// window from an N-chained run of an existing layer — chains are built once
// per layer and *shared* between overlapping windows, reproducing stacked
// sliding windows (including U1 == U2 single-tuple windows whose chain
// continues past U1).
struct RandomGraph {
  std::vector<IntrusivePtr<ValueTuple>> all;  // keeps everything alive
  Tuple* root = nullptr;
};

RandomGraph MakeRandomGraph(SplitMix64& rng) {
  RandomGraph g;
  const int n_sources = static_cast<int>(rng.UniformInt(1, 24));
  for (int i = 0; i < n_sources; ++i) {
    auto t = V(i, i);
    t->kind = TupleKind::kSource;
    if (rng.Bernoulli(0.1)) t->kind = TupleKind::kRemote;
    g.all.push_back(std::move(t));
  }
  // Chain the sources so aggregates can window over them. Built once,
  // shared by every window drawn below.
  for (int i = 0; i + 1 < n_sources; ++i) {
    g.all[static_cast<size_t>(i)]->try_set_next(
        g.all[static_cast<size_t>(i) + 1].get());
  }
  const size_t chain_len = g.all.size();

  const int n_ops = static_cast<int>(rng.UniformInt(1, 40));
  for (int i = 0; i < n_ops; ++i) {
    const size_t below = g.all.size();
    auto pick = [&] { return g.all[static_cast<size_t>(rng.UniformInt(
                          0, static_cast<int64_t>(below) - 1))].get(); };
    auto t = V(100 + i, 100 + i);
    switch (rng.UniformInt(0, 3)) {
      case 0:
        t->kind = TupleKind::kMap;
        t->set_u1(pick());
        break;
      case 1:
        t->kind = TupleKind::kMultiplex;
        t->set_u1(pick());
        break;
      case 2:
        t->kind = TupleKind::kJoin;
        t->set_u1(pick());
        t->set_u2(pick());
        break;
      default: {
        // A window [lo, hi] over the N-chained source run; windows overlap
        // freely and lo == hi makes a single-tuple window whose N continues
        // past U1 — the Listing 1 regression shape.
        t->kind = TupleKind::kAggregate;
        const int64_t lo =
            rng.UniformInt(0, static_cast<int64_t>(chain_len) - 1);
        const int64_t hi =
            rng.UniformInt(lo, static_cast<int64_t>(chain_len) - 1);
        t->set_u2(g.all[static_cast<size_t>(lo)].get());
        t->set_u1(g.all[static_cast<size_t>(hi)].get());
        break;
      }
    }
    g.all.push_back(std::move(t));
  }
  g.root = g.all.back().get();
  return g;
}

// --- the equivalence property ------------------------------------------------

TEST(TraversalFuzzTest, MatchesReferenceBfsSequence) {
  SplitMix64 rng(20260729);
  TraversalScratch scratch;  // shared across all graphs: also fuzzes reuse
  std::vector<Tuple*> got;
  constexpr int kGraphs = 10000;
  for (int i = 0; i < kGraphs; ++i) {
    RandomGraph g = MakeRandomGraph(rng);
    const std::vector<Tuple*> want = ReferenceFindProvenance(g.root);
    got.clear();
    FindProvenance(g.root, got, scratch);
    ASSERT_EQ(got, want) << "traversal diverged on graph " << i;
  }
}

// Re-traversing the same graph with one scratch must be idempotent: Clear()
// only bumps the pointer set's generation, so every slot the previous walk
// filled is still in memory and must read as empty.
TEST(TraversalFuzzTest, RepeatedTraversalsOfOneGraphAreIdempotent) {
  SplitMix64 rng(7);
  RandomGraph g = MakeRandomGraph(rng);
  const std::vector<Tuple*> want = ReferenceFindProvenance(g.root);
  TraversalScratch scratch;
  std::vector<Tuple*> got;
  for (int i = 0; i < 100; ++i) {
    got.clear();
    FindProvenance(g.root, got, scratch);
    ASSERT_EQ(got, want) << "repeat " << i;
  }
}

}  // namespace
}  // namespace genealog
