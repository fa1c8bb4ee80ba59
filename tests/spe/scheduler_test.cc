// Executor (spe/scheduler.h) behavioral tests: the back-pressure rule at a
// node's Step, readiness and wakeup between home workers and shared tasks,
// injector round-robin fairness,
// failure propagation while tasks are being stolen, and byte-identical
// output against thread-per-node across worker counts (including the fully
// serialized workers=1 case, which exposes any reliance on a second thread
// making progress).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "spe/aggregate.h"
#include "spe/join.h"
#include "spe/scheduler.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::Collector;
using testing::KeyedTuple;
using testing::V;
using testing::ValueTuple;

EngineOptions Pool(size_t workers) {
  return EngineOptions{.scheduler = SchedulerMode::kPool, .workers = workers};
}

std::vector<IntrusivePtr<ValueTuple>> Sequence(int n) {
  std::vector<IntrusivePtr<ValueTuple>> out;
  for (int i = 0; i < n; ++i) out.push_back(V(i, i));
  return out;
}

std::vector<IntrusivePtr<KeyedTuple>> KeyedSequence(int n) {
  std::vector<IntrusivePtr<KeyedTuple>> data;
  for (int i = 0; i < n; ++i) {
    data.push_back(MakeTuple<KeyedTuple>(i / 2, i % 5,
                                         static_cast<double>(i % 9 + 1)));
  }
  return data;
}

// A pipeline that exercises every schedulable node class: a re-armable
// source, SingleInputNode stages (filter/map/aggregate), and a
// multiplex/join diamond whose join is a MergingNode (watermark-ordered
// multi-port merge). The join's input queue has two producers, every other
// edge one, so both fan-in shapes run under the pool. Returns the exact sink
// sequence.
std::vector<std::string> RunDiamondPipeline(SchedulerMode scheduler,
                                            size_t workers) {
  Topology topo(0, ProvenanceMode::kNone,
                EngineOptions{.scheduler = scheduler, .workers = workers});
  auto* source =
      topo.Add<VectorSourceNode<KeyedTuple>>("src", KeyedSequence(400));
  auto* filter = topo.Add<FilterNode<KeyedTuple>>(
      "f", [](const KeyedTuple& t) { return (t.key + t.ts) % 7 != 0; });
  auto* mux = topo.Add<MultiplexNode>("mux");
  auto* left = topo.Add<FilterNode<KeyedTuple>>(
      "l", [](const KeyedTuple& t) { return t.ts % 2 == 0; });
  auto* right = topo.Add<FilterNode<KeyedTuple>>(
      "r", [](const KeyedTuple& t) { return t.ts % 3 == 0; });
  auto* join = topo.Add<JoinNode<KeyedTuple, KeyedTuple, KeyedTuple>>(
      "join", JoinOptions{4},
      [](const KeyedTuple& l, const KeyedTuple& r) { return l.key == r.key; },
      [](const KeyedTuple& l, const KeyedTuple& r) {
        return MakeTuple<KeyedTuple>(0, l.key, l.value + 1000 * r.value);
      });
  auto* agg = topo.Add<AggregateNode<KeyedTuple, KeyedTuple>>(
      "agg", AggregateOptions{8, 4},
      [](const KeyedTuple& t) { return t.key; },
      [](const WindowView<KeyedTuple, int64_t>& w) {
        double sum = 0;
        for (const auto& t : w.tuples) sum += t->value;
        return MakeTuple<KeyedTuple>(0, w.key, sum);
      });
  std::vector<std::string> out;
  auto* sink = topo.Add<SinkNode>("sink", [&out](const TuplePtr& t) {
    out.push_back(std::to_string(t->ts) + "/" + t->DebugPayload());
  });
  topo.Connect(source, filter);
  topo.Connect(filter, mux);
  topo.Connect(mux, left);
  topo.Connect(mux, right);
  topo.Connect(left, join);
  topo.Connect(right, join);
  topo.Connect(join, agg);
  topo.Connect(agg, sink);
  RunToCompletion(topo);
  return out;
}

// The data plane must be invisible to the scheduler choice: pool output is
// byte-identical to thread-per-node at every worker count (1 = fully
// serialized round-robin, >tasks = more workers than work).
TEST(SchedulerTest, PoolOutputMatchesThreadPerNodeAcrossWorkerCounts) {
  const auto reference = RunDiamondPipeline(SchedulerMode::kThreadPerNode, 0);
  ASSERT_FALSE(reference.empty());
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(RunDiamondPipeline(SchedulerMode::kPool, workers), reference)
        << "workers " << workers;
  }
}

// The back-pressure rule at a single-input node: a Step ends after the first
// batch whose emission spilled and keeps the rest of its burst, which the
// next Steps resume in order once the spill drained.
TEST(BackPressureTest, SpilledBatchEndsTheStepAndTheBurstResumes) {
  int calls = 0;
  MapNode<ValueTuple, ValueTuple> node(
      "copy", [&calls](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        ++calls;
        out.Emit(MakeTuple<ValueTuple>(0, in.value));
      });
  Endpoint in = node.AddInput();  // batch size 1: one batch per tuple
  for (int64_t i = 1; i <= 4; ++i) ASSERT_TRUE(in.PushTuple(V(i, i)));
  ASSERT_EQ(node.input_queue()->Size(), 4u);
  StreamQueue out(1);
  node.AddOutput(Endpoint{&out, 0});

  // One pop takes the whole burst; batch 1 lands, batch 2 spills, and the
  // Step ends there with batches 3 and 4 unprocessed.
  ASSERT_EQ(node.Step(WorkerPool::kMorselBatches), StepResult::kReady);
  EXPECT_EQ(node.input_queue()->Size(), 0u);
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(node.HasSpills());
  EXPECT_EQ(node.tuples_processed(), 2u);  // the kept batches count later

  std::vector<int64_t> delivered;
  std::vector<int> calls_after;
  StepResult result = StepResult::kReady;
  while (result == StepResult::kReady) {
    // The consumer frees room, the executor drains the spill, and the next
    // Step resumes the burst: one more batch each round.
    while (auto batch = out.TryPop()) {
      for (const TuplePtr& t : batch->tuples) delivered.push_back(t->ts);
    }
    ASSERT_TRUE(node.DrainSpills());
    result = node.Step(WorkerPool::kMorselBatches);
    calls_after.push_back(calls);
  }
  EXPECT_EQ(result, StepResult::kIdle);  // burst done, input empty
  while (auto batch = out.TryPop()) {
    for (const TuplePtr& t : batch->tuples) delivered.push_back(t->ts);
  }
  EXPECT_EQ(delivered, (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(calls_after, (std::vector<int>{3, 4, 4}));
  EXPECT_EQ(node.tuples_processed(), 4u);
}

// Readiness must cross the placement boundary: a rate-limited source keeps
// a home worker even under the pool, and the shared workers park between
// its (slow, externally clocked) pushes. Every push must wake them — a lost
// wakeup hangs the run, a missed flush drops the tail.
TEST(SchedulerTest, PinnedSourceWakesParkedPoolWorkers) {
  // Batch 4: many small pushes -> many park/wake cycles.
  Topology topo(0, ProvenanceMode::kNone,
                EngineOptions{.batch_size = 4,
                              .scheduler = SchedulerMode::kPool,
                              .workers = 2});
  SourceOptions options;
  options.max_rate_tps = 20000;  // homed: NeedsDedicatedThread() == true
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", Sequence(64), options);
  auto* filter = topo.Add<FilterNode<ValueTuple>>(
      "f", [](const ValueTuple&) { return true; });
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, filter);
  topo.Connect(filter, sink);
  RunToCompletion(topo);
  EXPECT_EQ(collector.tuples().size(), 64u);
  EXPECT_EQ(sink->count(), 64u);
}

// Per-query round-robin fairness: with ONE worker and a hot tenant pushing
// six orders of magnitude more data, a tiny query sharing the pool must
// complete long before the hot one drains — the injector serves buckets
// round-robin, so the small query's tasks get a quantum every cycle.
TEST(SchedulerTest, InjectorRoundRobinKeepsSmallQueryResponsive) {
  Topology big(1, ProvenanceMode::kNone, Pool(1));
  SourceOptions big_options;
  big_options.replays = 1000;
  big_options.replay_ts_shift = 200;
  auto* big_source =
      big.Add<VectorSourceNode<ValueTuple>>("big.src", Sequence(200),
                                            big_options);
  Collector big_collector;
  auto* big_sink = big_collector.AttachSink(big, "big.sink");
  big.Connect(big_source, big_sink);

  Topology small(2, ProvenanceMode::kNone, Pool(1));
  auto* small_source =
      small.Add<VectorSourceNode<ValueTuple>>("small.src", Sequence(50));
  const uint64_t big_total = 200u * 1000u;
  std::atomic<uint64_t> big_progress_at_small_done{big_total};
  std::atomic<size_t> small_seen{0};
  auto* small_sink = small.Add<SinkNode>(
      "small.sink", [&](const TuplePtr&) {
        if (small_seen.fetch_add(1) + 1 == 50) {
          big_progress_at_small_done.store(big_source->tuples_processed());
        }
      });
  small.Connect(small_source, small_sink);

  Runner runner({&big, &small});
  runner.Start();
  runner.Join();
  EXPECT_EQ(runner.scheduler(), SchedulerMode::kPool);
  EXPECT_EQ(small_seen.load(), 50u);
  EXPECT_EQ(big_collector.tuples().size(), big_total);
  // The hot query must still have been mid-stream when the small one
  // finished; a FIFO (bucket-less) injector would have drained it first.
  EXPECT_LT(big_progress_at_small_done.load(), big_total);
}

// First failure propagates while the rest of a fleet is live: four queries
// on four workers (tasks migrate between deques via steals), one throws
// mid-stream. Join must rethrow, and the surviving queries' tasks must all
// retire through the abort protocol — a hang here is the bug.
TEST(SchedulerTest, ExceptionInPoolTaskAbortsFleet) {
  std::vector<std::unique_ptr<Topology>> fleet;
  std::vector<Topology*> ptrs;
  std::vector<std::unique_ptr<Collector>> collectors;
  for (int q = 0; q < 4; ++q) {
    auto topo = std::make_unique<Topology>(q + 1, ProvenanceMode::kNone,
                                           Pool(4));
    auto* source = topo->Add<VectorSourceNode<ValueTuple>>(
        "src", Sequence(100000));
    auto* map = topo->Add<MapNode<ValueTuple, ValueTuple>>(
        "map", [q](const ValueTuple& in, MapCollector<ValueTuple>& out) {
          if (q == 2 && in.value == 10) throw std::runtime_error("boom");
          out.Emit(MakeTuple<ValueTuple>(0, in.value));
        });
    collectors.push_back(std::make_unique<Collector>());
    auto* sink = collectors.back()->AttachSink(*topo);
    topo->Connect(source, map);
    topo->Connect(map, sink);
    ptrs.push_back(topo.get());
    fleet.push_back(std::move(topo));
  }
  Runner runner(std::move(ptrs));
  runner.Start();
  EXPECT_THROW(runner.Join(), std::runtime_error);
}

// Pool variant of the upstream-unblock invariant: a failing consumer must
// not leave a producer stranded with spilled output. The abort drains the
// spill deques and retires the producer task.
TEST(SchedulerTest, ExceptionUnblocksSpilledProducerUnderPool) {
  Topology topo(0, ProvenanceMode::kNone, Pool(1));
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", Sequence(100000));
  auto* map = topo.Add<MapNode<ValueTuple, ValueTuple>>(
      "bomb", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        if (in.value == 10) throw std::runtime_error("boom");
        out.Emit(MakeTuple<ValueTuple>(0, in.value));
      });
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, map);
  topo.Connect(map, sink);
  Runner runner({&topo});
  runner.Start();
  EXPECT_THROW(runner.Join(), std::runtime_error);
}

// Destroying a Runner mid-run in pool mode must abort and join cleanly, same
// contract as thread-per-node.
TEST(SchedulerTest, RunnerDestructorAbortsUnjoinedPoolRun) {
  Topology topo(0, ProvenanceMode::kNone, Pool(2));
  SourceOptions options;
  options.replays = 1000000;
  options.replay_ts_shift = 100;
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", Sequence(10), options);
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, sink);
  {
    Runner runner({&topo});
    runner.Start();
    // Destructor must abort and join without deadlock.
  }
  SUCCEED();
}

// Mode resolution: the pool engages only when every topology opted in.
TEST(SchedulerTest, RunnerResolvesSchedulerFromTopologies) {
  auto make = [](int id, SchedulerMode mode, Collector& c) {
    auto topo = std::make_unique<Topology>(id, ProvenanceMode::kNone,
                                           EngineOptions{.scheduler = mode});
    auto* source = topo->Add<VectorSourceNode<ValueTuple>>("src", Sequence(5));
    auto* sink = c.AttachSink(*topo);
    topo->Connect(source, sink);
    return topo;
  };

  {
    Collector c1, c2;
    auto t1 = make(1, SchedulerMode::kPool, c1);
    auto t2 = make(2, SchedulerMode::kPool, c2);
    Runner runner({t1.get(), t2.get()});
    runner.Start();
    runner.Join();
    EXPECT_EQ(runner.scheduler(), SchedulerMode::kPool);
    EXPECT_EQ(c1.tuples().size(), 5u);
    EXPECT_EQ(c2.tuples().size(), 5u);
  }
  {
    // One hold-out keeps the whole Runner on thread-per-node.
    Collector c1, c2;
    auto t1 = make(1, SchedulerMode::kPool, c1);
    auto t2 = make(2, SchedulerMode::kThreadPerNode, c2);
    Runner runner({t1.get(), t2.get()});
    runner.Start();
    runner.Join();
    EXPECT_EQ(runner.scheduler(), SchedulerMode::kThreadPerNode);
    EXPECT_EQ(c1.tuples().size(), 5u);
    EXPECT_EQ(c2.tuples().size(), 5u);
  }
}

}  // namespace
}  // namespace genealog
