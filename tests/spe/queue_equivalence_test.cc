// BatchQueue and SpscRing implement one contract behind StreamEdge; this
// property suite keeps them from silently diverging. Randomized push/pop/
// abort schedules are replayed, operation by operation, through a mutex edge
// and a ring edge, and every observable — Size, Weight, each popped batch's
// port/tuples/watermark/flush, push results after abort — must be identical.
// The schedules run on one thread (legal for SPSC and deterministic for the
// mutex queue), so the coalescing decisions of both implementations are
// forced to agree step for step; the concurrent behavior of the ring is
// covered by spsc_ring_test.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "spe/node.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;

// A StreamEdge of the requested implementation: one registered producer
// upgrades it to the ring, none keeps the mutex queue.
std::unique_ptr<StreamEdge> MakeEdge(StreamEdge::Kind kind, size_t capacity) {
  auto edge = std::make_unique<StreamEdge>(capacity);
  if (kind == StreamEdge::Kind::kSpsc) {
    edge->RegisterProducer(edge.get());  // one producer: upgrades to the ring
    EXPECT_EQ(edge->kind(), StreamEdge::Kind::kSpsc);
  } else {
    EXPECT_EQ(edge->kind(), StreamEdge::Kind::kMutex);
  }
  return edge;
}

std::string Describe(const StreamBatch& batch) {
  std::string s = "port=" + std::to_string(batch.port) + " tuples=[";
  for (const TuplePtr& t : batch.tuples) {
    s += std::to_string(t->ts) + "/" +
         static_cast<const testing::ValueTuple&>(*t).DebugPayload() + ",";
  }
  s += "]";
  if (batch.has_watermark()) s += " wm=" + std::to_string(batch.watermark);
  if (batch.flush) s += " flush";
  return s;
}

void ExpectSameBatch(const std::optional<StreamBatch>& a,
                     const std::optional<StreamBatch>& b, int step) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
  if (!a.has_value()) return;
  EXPECT_EQ(Describe(*a), Describe(*b)) << "step " << step;
}

// One randomized schedule: pushes (data batches of 0-4 tuples with optional
// trailing watermark, on two ports), pops, and possibly an abort, mirrored
// into both edges. The tuple budget is tracked so the single-threaded
// schedule never pushes a batch both implementations would block on.
void RunSchedule(uint64_t seed, size_t capacity, size_t max_coalesce,
                 bool with_abort) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " cap " +
               std::to_string(capacity) + " coalesce " +
               std::to_string(max_coalesce) +
               (with_abort ? " abort" : ""));
  auto mutex_edge = MakeEdge(StreamEdge::Kind::kMutex, capacity);
  auto ring_edge = MakeEdge(StreamEdge::Kind::kSpsc, capacity);

  SplitMix64 rng(seed);
  int64_t seq = 0;
  int64_t ts = 0;
  bool aborted = false;
  // Shadow of the queue tail, used only to predict whether a push into a
  // full queue would block (control batches merge into a same-port unsealed
  // tail without weight; everything else would wait for the consumer, which
  // is this same thread). Valid while Size() > 0.
  std::optional<uint16_t> tail_port;
  bool tail_sealed = false;
  const int steps = 400;
  const int abort_step =
      with_abort ? static_cast<int>(rng.UniformInt(50, 350)) : -1;

  for (int step = 0; step < steps; ++step) {
    if (step == abort_step) {
      mutex_edge->Abort();
      ring_edge->Abort();
      aborted = true;
    }
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op < 6) {
      // Push: build the same logical batch twice (fresh tuples each, since a
      // batch is consumed by the push).
      const uint16_t port = static_cast<uint16_t>(rng.UniformInt(0, 1));
      int n_tuples = static_cast<int>(rng.UniformInt(0, 4));
      bool flush = rng.UniformInt(0, 19) == 0;
      const bool wm = (n_tuples == 0 && !flush) || rng.Bernoulli(0.3);
      ts += rng.UniformInt(0, 2);
      const size_t size_before = mutex_edge->Size();
      const size_t w = n_tuples > 0 ? static_cast<size_t>(n_tuples) : 1;
      if (!aborted && size_before != 0 &&
          mutex_edge->Weight() + w > capacity) {
        // Full queue: only a control merge into a same-port unsealed tail is
        // guaranteed not to block this (single) thread.
        const bool control_merges = n_tuples == 0 && tail_port == port &&
                                    !tail_sealed;
        if (!control_merges) continue;
      }
      auto build = [&] {
        StreamBatch batch;
        batch.port = port;
        int64_t t = ts;
        for (int k = 0; k < n_tuples; ++k) {
          batch.tuples.push_back(V(t, seq + k));
          t += 1;
        }
        if (wm) batch.watermark = ts + n_tuples;
        batch.flush = flush;
        return batch;
      };
      ts += n_tuples;
      seq += n_tuples;
      const bool r1 = mutex_edge->Push(build(), max_coalesce);
      const bool r2 = ring_edge->Push(build(), max_coalesce);
      EXPECT_EQ(r1, r2) << "push result diverged at step " << step;
      EXPECT_EQ(r1, !aborted) << "push result vs abort at step " << step;
      if (!aborted) {
        if (mutex_edge->Size() > size_before) {
          tail_port = port;
          tail_sealed = flush;
        } else {
          tail_sealed = tail_sealed || flush;
        }
      }
    } else if (op < 9) {
      ExpectSameBatch(mutex_edge->TryPop(), ring_edge->TryPop(), step);
      if (mutex_edge->Size() == 0) tail_port.reset();
    }
    // op == 9: no-op tick (lets coalescing windows build up).
    EXPECT_EQ(mutex_edge->Size(), ring_edge->Size()) << "step " << step;
    EXPECT_EQ(mutex_edge->Weight(), ring_edge->Weight()) << "step " << step;
  }

  // Full drain must agree too (and terminate).
  for (;;) {
    auto a = mutex_edge->TryPop();
    auto b = ring_edge->TryPop();
    ExpectSameBatch(a, b, steps);
    if (!a.has_value()) break;
  }
  EXPECT_EQ(mutex_edge->Weight(), 0u);
  EXPECT_EQ(ring_edge->Weight(), 0u);
}

class QueueEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueueEquivalenceTest, IdenticalObservableSequences) {
  const uint64_t seed = GetParam();
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const size_t capacity = static_cast<size_t>(rng.UniformInt(4, 64));
  const size_t max_coalesce = static_cast<size_t>(rng.UniformInt(1, 8));
  RunSchedule(seed, capacity, max_coalesce, /*with_abort=*/false);
}

TEST_P(QueueEquivalenceTest, IdenticalAbortBehavior) {
  const uint64_t seed = GetParam();
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  const size_t capacity = static_cast<size_t>(rng.UniformInt(4, 64));
  const size_t max_coalesce = static_cast<size_t>(rng.UniformInt(1, 8));
  RunSchedule(seed, capacity, max_coalesce, /*with_abort=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 41));

// The StreamEdge selection rules themselves: exactly one producer -> ring;
// fan-in or no declared producer -> mutex; a second producer downgrades an
// already-upgraded edge.
TEST(StreamEdgeSelectionTest, SingleProducerUpgradesToRing) {
  StreamEdge edge(16);
  int producer_a = 0;
  edge.RegisterProducer(&producer_a);
  EXPECT_EQ(edge.kind(), StreamEdge::Kind::kSpsc);
  // The same producer wiring a second port keeps the ring.
  edge.RegisterProducer(&producer_a);
  EXPECT_EQ(edge.kind(), StreamEdge::Kind::kSpsc);
}

TEST(StreamEdgeSelectionTest, FanInDowngradesToMutex) {
  StreamEdge edge(16);
  int producer_a = 0;
  int producer_b = 0;
  edge.RegisterProducer(&producer_a);
  EXPECT_EQ(edge.kind(), StreamEdge::Kind::kSpsc);
  edge.RegisterProducer(&producer_b);
  EXPECT_EQ(edge.kind(), StreamEdge::Kind::kMutex);
}

TEST(StreamEdgeSelectionTest, UndeclaredProducersStayMutex) {
  // Directly-constructed queues (tests, harnesses) never register producers
  // and must keep the multi-producer-safe default.
  StreamEdge edge(16);
  EXPECT_EQ(edge.kind(), StreamEdge::Kind::kMutex);
}

}  // namespace
}  // namespace genealog
