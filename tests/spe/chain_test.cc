// Chained edges (Topology::Chain): a chained operator runs inside its
// producer's task, on the producer's thread, with no queue between them.
// Chaining must be invisible in the output — the same emission order, the
// same ids and the same per-node counts as the queued wiring — while the
// back-pressure rule and the abort path reach through the chain to its head.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "genealog/su.h"
#include "genealog/unfolded.h"
#include "lr/linear_road.h"
#include "queries/queries.h"
#include "spe/scheduler.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

std::vector<IntrusivePtr<ValueTuple>> Sequence(int n) {
  std::vector<IntrusivePtr<ValueTuple>> out;
  // Three tuples per timestamp, so watermarks advance between runs of ties.
  for (int i = 0; i < n; ++i) out.push_back(V(i / 3, i));
  return out;
}

EngineOptions Options(size_t batch_size, SchedulerMode scheduler) {
  EngineOptions options;
  options.batch_size = batch_size;
  options.scheduler = scheduler;
  options.workers = 2;
  return options;
}

// Wires `from` -> `to` queued or chained.
void Wire(Topology& topo, bool chained, Node* from, SingleInputNode* to) {
  if (chained) {
    topo.Chain(from, to);
  } else {
    topo.Connect(from, to);
  }
}

// What one run emitted: "ts|seq|value" per K and tap tuple, "derived
// seq|origin seq" per U tuple, and tuples_processed by node name. A seq is an
// id without its node uid, which differs between two builds.
struct PipelineRun {
  std::vector<std::string> k;
  std::vector<std::string> u;
  std::vector<std::string> tap;
  std::map<std::string, uint64_t> processed;
  size_t tasks = 0;
};

std::string Seq(uint64_t id) { return std::to_string(id & kTupleSeqMask); }

std::string Line(const TuplePtr& t) {
  return std::to_string(t->ts) + "|" + Seq(t->id) + "|" +
         std::to_string(static_cast<const ValueTuple&>(*t).value);
}

// source -> Map -> Filter -> Multiplex -> {Filter -> SU -> {K, U sink}, tap}
// under GL, every edge queued or every edge chained.
PipelineRun RunPipeline(bool chained, size_t batch_size,
                        SchedulerMode scheduler) {
  PipelineRun run;
  Topology topo(0, ProvenanceMode::kGenealog, Options(batch_size, scheduler));
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("source", Sequence(3000));
  auto* map = topo.Add<MapNode<ValueTuple, ValueTuple>>(
      "map", [](const ValueTuple& t, MapCollector<ValueTuple>& out) {
        out.Emit(V(0, t.value * 2 + 1));
        if (t.value % 7 == 0) out.Emit(V(0, -t.value));
      });
  auto* filter = topo.Add<FilterNode<ValueTuple>>(
      "filter", [](const ValueTuple& t) { return t.value % 3 != 0; });
  auto* multiplex = topo.Add<MultiplexNode>("multiplex");
  auto* filter2 = topo.Add<FilterNode<ValueTuple>>(
      "filter2", [](const ValueTuple& t) { return t.value % 5 != 0; });
  auto* su = topo.Add<SuNode>("SU");
  auto* k = topo.Add<SinkNode>(
      "K", [&run](const TuplePtr& t) { run.k.push_back(Line(t)); });
  auto* u_sink = topo.Add<SinkNode>("U", [&run](const TuplePtr& t) {
    const auto& u = static_cast<const UnfoldedTuple&>(*t);
    run.u.push_back(Seq(u.derived_id) + "|" + Seq(u.origin_id));
  });
  auto* tap = topo.Add<SinkNode>(
      "tap", [&run](const TuplePtr& t) { run.tap.push_back(Line(t)); });
  Wire(topo, chained, source, map);
  Wire(topo, chained, map, filter);
  Wire(topo, chained, filter, multiplex);
  Wire(topo, chained, multiplex, filter2);
  Wire(topo, chained, multiplex, tap);
  Wire(topo, chained, filter2, su);
  Wire(topo, chained, su, k);       // output 0 = SO
  Wire(topo, chained, su, u_sink);  // output 1 = U

  Runner runner({&topo});
  runner.Start();
  run.tasks = runner.pool()->task_count();
  runner.Join();
  for (const auto& node : topo.nodes()) {
    run.processed[node->name()] = node->tuples_processed();
  }
  return run;
}

TEST(ChainTest, ChainedAndQueuedWiringsEmitTheSame) {
  for (const SchedulerMode scheduler :
       {SchedulerMode::kThreadPerNode, SchedulerMode::kPool}) {
    for (const size_t batch : {size_t{1}, size_t{64}}) {
      SCOPED_TRACE("batch " + std::to_string(batch) +
                   (scheduler == SchedulerMode::kPool ? " pool" : " homed"));
      const PipelineRun queued = RunPipeline(false, batch, scheduler);
      const PipelineRun chained = RunPipeline(true, batch, scheduler);
      EXPECT_EQ(queued.tasks, 9u);
      EXPECT_EQ(chained.tasks, 1u);
      ASSERT_FALSE(queued.k.empty());
      ASSERT_FALSE(queued.u.empty());
      ASSERT_FALSE(queued.tap.empty());
      EXPECT_EQ(queued.processed, chained.processed);
      EXPECT_EQ(queued.k, chained.k);
      EXPECT_EQ(queued.u, chained.u);
      EXPECT_EQ(queued.tap, chained.tap);
    }
  }
}

// Chain rejects a consumer that is not Chainable or already has an input,
// and a chained node takes no queued input afterwards.
TEST(ChainTest, ChainChecksItsConsumer) {
  Topology topo;
  auto* a = topo.Add<FilterNode<ValueTuple>>(
      "a", [](const ValueTuple&) { return true; });
  auto* b = topo.Add<FilterNode<ValueTuple>>(
      "b", [](const ValueTuple&) { return true; });
  auto* c = topo.Add<FilterNode<ValueTuple>>(
      "c", [](const ValueTuple&) { return true; });
  auto* pull_su = topo.Add<SuNode>("SU.pull", RetentionSpec{.ws = 1});
  topo.Connect(a, b);
  EXPECT_THROW(topo.Chain(a, b), std::logic_error);
  topo.Chain(a, c);
  EXPECT_TRUE(c->chained());
  EXPECT_EQ(c->input_queue(), nullptr);
  EXPECT_THROW(topo.Connect(b, c), std::logic_error);
  EXPECT_THROW(topo.Chain(b, c), std::logic_error);
  EXPECT_THROW(topo.Chain(a, pull_su), std::logic_error);
}

// Aborting the queue after a chain stops the chain's head source before its
// data ends — both when tuples reach the aborted queue and when the chained
// filter drops every one of them.
TEST(ChainTest, AbortAfterTheChainStopsTheHeadSource) {
  constexpr int kTuples = 100000;
  for (const bool pass : {true, false}) {
    SCOPED_TRACE(pass ? "filter passes all" : "filter drops all");
    Topology topo(0, ProvenanceMode::kNone,
                  Options(64, SchedulerMode::kThreadPerNode));
    auto* source =
        topo.Add<VectorSourceNode<ValueTuple>>("source", Sequence(kTuples));
    auto* filter = topo.Add<FilterNode<ValueTuple>>(
        "filter", [pass](const ValueTuple&) { return pass; });
    auto* sink = topo.Add<SinkNode>("sink");
    topo.Chain(source, filter);
    topo.Connect(filter, sink);
    sink->input_queue()->Abort();
    RunToCompletion(topo);
    // The first push through the chain already reports the abort.
    EXPECT_LT(source->tuples_processed(), 64u);
    EXPECT_EQ(sink->count(), 0u);
  }
}

// A full queue after a chain spills at the chained node's endpoint, and the
// executor holds the head task: the source stops emitting while the sink is
// stalled, and resumes, losing and reordering nothing, once it drains.
TEST(ChainTest, FullQueueAfterTheChainHoldsTheHeadTask) {
  constexpr int kTuples = 20000;
  for (const SchedulerMode scheduler :
       {SchedulerMode::kThreadPerNode, SchedulerMode::kPool}) {
    SCOPED_TRACE(scheduler == SchedulerMode::kPool ? "pool" : "homed");
    Topology topo(0, ProvenanceMode::kNone, Options(64, scheduler));
    auto* source =
        topo.Add<VectorSourceNode<ValueTuple>>("source", Sequence(kTuples));
    auto* map = topo.Add<MapNode<ValueTuple, ValueTuple>>(
        "map", [](const ValueTuple& t, MapCollector<ValueTuple>& out) {
          out.Emit(V(0, t.value));
        });
    std::atomic<bool> release{false};
    std::vector<int64_t> seen;
    auto* sink = topo.Add<SinkNode>("sink", [&](const TuplePtr& t) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      seen.push_back(static_cast<const ValueTuple&>(*t).value);
    });
    topo.Chain(source, map);
    topo.Connect(map, sink);

    Runner runner({&topo});
    runner.Start();
    // Wait for the source to stop moving while the sink is stalled.
    uint64_t held = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (uint64_t last = ~uint64_t{0};
         std::chrono::steady_clock::now() < deadline;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      held = source->tuples_processed();
      if (held == last) break;
      last = held;
    }
    EXPECT_GE(held, kDefaultQueueCapacity);
    EXPECT_LT(held, static_cast<uint64_t>(kTuples));
    release.store(true);
    runner.Join();

    EXPECT_EQ(source->tuples_processed(), static_cast<uint64_t>(kTuples));
    EXPECT_EQ(map->tuples_processed(), static_cast<uint64_t>(kTuples));
    ASSERT_EQ(seen.size(), static_cast<size_t>(kTuples));
    for (int i = 0; i < kTuples; ++i) ASSERT_EQ(seen[i], i);
  }
}

// The back-pressure rule holds for the whole chain: once a queue after the
// chain spills, the head's Step emits nothing more until the spill drained.
// Stepped by hand, so the count is exact.
TEST(ChainTest, SpillAfterTheChainEndsTheHeadStep) {
  Topology topo(0, ProvenanceMode::kNone,
                Options(64, SchedulerMode::kThreadPerNode));
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("source", Sequence(20000));
  auto* filter = topo.Add<FilterNode<ValueTuple>>(
      "filter", [](const ValueTuple&) { return true; });
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Chain(source, filter);
  topo.Connect(filter, sink);
  StreamQueue* queue = sink->input_queue();

  while (!source->HasSpills()) {
    ASSERT_EQ(source->Step(1), StepResult::kReady);
  }
  const uint64_t emitted = source->tuples_processed();
  EXPECT_LE(queue->Weight(), queue->capacity());
  EXPECT_EQ(source->Step(WorkerPool::kMorselBatches), StepResult::kReady);
  EXPECT_EQ(source->tuples_processed(), emitted);

  EXPECT_FALSE(source->DrainSpills());
  while (queue->TryPop()) {
  }
  EXPECT_TRUE(source->DrainSpills());
  EXPECT_FALSE(source->HasSpills());
  source->Step(1);
  EXPECT_GT(source->tuples_processed(), emitted);
}

// The lowering chains every eligible same-instance edge: Q1 intra GL runs
// as [source -> filter.speed0], [agg.stopped -> filter.stopped -> SU -> K]
// and [K2], while nodes() still lists all seven operators.
TEST(ChainTest, Q1IntraGlRunsAsThreeTasks) {
  lr::LinearRoadConfig config;
  config.n_cars = 30;
  config.duration_s = 1800;
  config.stop_probability = 0.03;
  config.seed = 17;
  for (const SchedulerMode scheduler :
       {SchedulerMode::kThreadPerNode, SchedulerMode::kPool}) {
    queries::QueryBuildOptions options;
    options.mode = ProvenanceMode::kGenealog;
    options.scheduler = scheduler;
    BuiltDataflow q =
        queries::BuildQ1Fluent(lr::GenerateLinearRoad(config), options);
    ASSERT_EQ(q.topologies.size(), 1u);
    std::vector<std::string> names;
    std::vector<std::string> heads;
    for (const auto& node : q.topologies[0]->nodes()) {
      names.push_back(node->name());
      if (!node->chained()) heads.push_back(node->name());
    }
    EXPECT_EQ(names.size(), 7u);
    EXPECT_EQ(heads, (std::vector<std::string>{"source", "agg.stopped", "K2"}));

    Runner runner({q.topologies[0].get()});
    runner.Start();
    EXPECT_EQ(runner.pool()->task_count(), 3u);
    runner.Join();
    EXPECT_GT(q.sinks[0]->count(), 0u);
    for (const auto& node : q.topologies[0]->nodes()) {
      if (node->name() == "filter.speed0") {
        EXPECT_EQ(node->tuples_processed(), q.source()->tuples_processed());
      }
    }
  }
}

}  // namespace
}  // namespace genealog
