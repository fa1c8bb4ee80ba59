#include "spe/stateless.h"

#include <gtest/gtest.h>

#include "spe/sink.h"
#include "spe/source.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::Collector;
using testing::V;
using testing::ValueTuple;

std::vector<IntrusivePtr<ValueTuple>> Values(
    std::initializer_list<std::pair<int64_t, int64_t>> items) {
  std::vector<IntrusivePtr<ValueTuple>> out;
  for (auto [ts, v] : items) out.push_back(V(ts, v));
  return out;
}

TEST(MapNodeTest, OneToOneTransform) {
  Topology topo;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>(
      "src", Values({{1, 10}, {2, 20}, {3, 30}}));
  auto* map = topo.Add<MapNode<ValueTuple, ValueTuple>>(
      "double", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        out.Emit(MakeTuple<ValueTuple>(0, in.value * 2));
      });
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, map);
  topo.Connect(map, sink);
  RunToCompletion(topo);

  ASSERT_EQ(collector.tuples().size(), 3u);
  EXPECT_EQ(collector.at<ValueTuple>(0).value, 20);
  EXPECT_EQ(collector.at<ValueTuple>(2).value, 60);
}

TEST(MapNodeTest, EnforcesTimestampContract) {
  Topology topo;
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", Values({{7, 1}}));
  auto* map = topo.Add<MapNode<ValueTuple, ValueTuple>>(
      "map", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        out.Emit(MakeTuple<ValueTuple>(9999, in.value));  // ts is overwritten
      });
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, map);
  topo.Connect(map, sink);
  RunToCompletion(topo);
  ASSERT_EQ(collector.tuples().size(), 1u);
  EXPECT_EQ(collector.tuples()[0]->ts, 7);
}

TEST(MapNodeTest, OneToManyAndZero) {
  Topology topo;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>(
      "src", Values({{1, 2}, {2, 0}, {3, 3}}));
  // Emit `value` copies of each tuple.
  auto* map = topo.Add<MapNode<ValueTuple, ValueTuple>>(
      "fanout", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        for (int64_t i = 0; i < in.value; ++i) {
          out.Emit(MakeTuple<ValueTuple>(0, in.value));
        }
      });
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, map);
  topo.Connect(map, sink);
  RunToCompletion(topo);
  EXPECT_EQ(collector.tuples().size(), 5u);  // 2 + 0 + 3
}

TEST(MapNodeTest, GenealogModeLinksU1AndAssignsIds) {
  Topology topo(/*instance_id=*/0, ProvenanceMode::kGenealog);
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", Values({{1, 5}}));
  auto* map = topo.Add<MapNode<ValueTuple, ValueTuple>>(
      "map", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        out.Emit(MakeTuple<ValueTuple>(0, in.value + 1));
      });
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, map);
  topo.Connect(map, sink);
  RunToCompletion(topo);

  ASSERT_EQ(collector.tuples().size(), 1u);
  const TuplePtr& out = collector.tuples()[0];
  EXPECT_EQ(out->kind, TupleKind::kMap);
  ASSERT_NE(out->u1(), nullptr);
  EXPECT_EQ(out->u1()->kind, TupleKind::kSource);
  EXPECT_EQ(static_cast<ValueTuple*>(out->u1())->value, 5);
  EXPECT_NE(out->id, 0u);
  EXPECT_NE(out->id, out->u1()->id);
}

TEST(FilterNodeTest, ForwardsMatchingTuplesUnchanged) {
  Topology topo(0, ProvenanceMode::kGenealog);
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>(
      "src", Values({{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  auto* filter = topo.Add<FilterNode<ValueTuple>>(
      "even", [](const ValueTuple& t) { return t.value % 2 == 0; });
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, filter);
  topo.Connect(filter, sink);
  RunToCompletion(topo);

  ASSERT_EQ(collector.tuples().size(), 2u);
  EXPECT_EQ(collector.at<ValueTuple>(0).value, 2);
  EXPECT_EQ(collector.at<ValueTuple>(1).value, 4);
  // Filter forwards, it does not create: tuples are still SOURCE tuples with
  // no meta-attributes set (§4.1: no instrumentation for Filter).
  EXPECT_EQ(collector.tuples()[0]->kind, TupleKind::kSource);
  EXPECT_EQ(collector.tuples()[0]->u1(), nullptr);
}

TEST(FilterNodeTest, ForwardsWatermarksWhileDropping) {
  // A filter that drops everything must still let watermarks through,
  // otherwise downstream merges would stall. Verified via a Union that needs
  // the dropped branch's watermark to release the other branch's tuples.
  Topology topo;
  auto* left = topo.Add<VectorSourceNode<ValueTuple>>(
      "left", Values({{1, 1}, {5, 2}, {9, 3}}));
  auto* right = topo.Add<VectorSourceNode<ValueTuple>>(
      "right", Values({{2, 10}, {6, 20}, {10, 30}}));
  auto* drop_all = topo.Add<FilterNode<ValueTuple>>(
      "drop", [](const ValueTuple&) { return false; });
  auto* merge = topo.Add<UnionNode>("union");
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(left, merge);
  topo.Connect(right, drop_all);
  topo.Connect(drop_all, merge);
  topo.Connect(merge, sink);
  RunToCompletion(topo);
  EXPECT_EQ(collector.tuples().size(), 3u);
}

TEST(MultiplexNodeTest, CopiesToEveryOutput) {
  Topology topo;
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", Values({{1, 7}, {2, 8}}));
  auto* mux = topo.Add<MultiplexNode>("mux");
  Collector a;
  Collector b;
  auto* sink_a = a.AttachSink(topo, "a");
  auto* sink_b = b.AttachSink(topo, "b");
  topo.Connect(source, mux);
  topo.Connect(mux, sink_a);
  topo.Connect(mux, sink_b);
  RunToCompletion(topo);

  ASSERT_EQ(a.tuples().size(), 2u);
  ASSERT_EQ(b.tuples().size(), 2u);
  EXPECT_EQ(a.at<ValueTuple>(0).value, 7);
  EXPECT_EQ(b.at<ValueTuple>(0).value, 7);
  // Copies are distinct objects sharing the input's id.
  EXPECT_NE(a.tuples()[0].get(), b.tuples()[0].get());
  EXPECT_EQ(a.tuples()[0]->id, b.tuples()[0]->id);
}

TEST(MultiplexNodeTest, GenealogCopiesPointBackViaU1) {
  Topology topo(0, ProvenanceMode::kGenealog);
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", Values({{1, 7}}));
  auto* mux = topo.Add<MultiplexNode>("mux");
  Collector a;
  Collector b;
  auto* sink_a = a.AttachSink(topo, "a");
  auto* sink_b = b.AttachSink(topo, "b");
  topo.Connect(source, mux);
  topo.Connect(mux, sink_a);
  topo.Connect(mux, sink_b);
  RunToCompletion(topo);

  EXPECT_EQ(a.tuples()[0]->kind, TupleKind::kMultiplex);
  EXPECT_EQ(b.tuples()[0]->kind, TupleKind::kMultiplex);
  // Both copies point to the same input tuple.
  EXPECT_EQ(a.tuples()[0]->u1(), b.tuples()[0]->u1());
  EXPECT_EQ(a.tuples()[0]->u1()->kind, TupleKind::kSource);
}

TEST(MultiplexNodeTest, BaselineCopiesAnnotation) {
  Topology topo(0, ProvenanceMode::kBaseline);
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", Values({{1, 7}}));
  auto* mux = topo.Add<MultiplexNode>("mux");
  Collector a;
  auto* sink_a = a.AttachSink(topo, "a");
  topo.Connect(source, mux);
  topo.Connect(mux, sink_a);
  RunToCompletion(topo);

  ASSERT_NE(a.tuples()[0]->baseline_annotation(), nullptr);
  EXPECT_EQ(a.tuples()[0]->baseline_annotation()->size(), 1u);
}

TEST(UnionNodeTest, MergesSortedStreamsSorted) {
  Topology topo;
  auto* left = topo.Add<VectorSourceNode<ValueTuple>>(
      "left", Values({{1, 1}, {4, 2}, {7, 3}}));
  auto* right = topo.Add<VectorSourceNode<ValueTuple>>(
      "right", Values({{2, 10}, {3, 20}, {8, 30}}));
  auto* merge = topo.Add<UnionNode>("union");
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(left, merge);
  topo.Connect(right, merge);
  topo.Connect(merge, sink);
  RunToCompletion(topo);

  EXPECT_EQ(collector.Timestamps(), (std::vector<int64_t>{1, 2, 3, 4, 7, 8}));
}

TEST(UnionNodeTest, TieBreaksByPortIndex) {
  for (int run = 0; run < 10; ++run) {
    Topology topo;
    auto* left = topo.Add<VectorSourceNode<ValueTuple>>(
        "left", Values({{5, 1}, {10, 1}}));
    auto* right = topo.Add<VectorSourceNode<ValueTuple>>(
        "right", Values({{5, 2}, {10, 2}}));
    auto* merge = topo.Add<UnionNode>("union");
    Collector collector;
    auto* sink = collector.AttachSink(topo);
    topo.Connect(left, merge);   // port 0
    topo.Connect(right, merge);  // port 1
    topo.Connect(merge, sink);
    RunToCompletion(topo);

    ASSERT_EQ(collector.tuples().size(), 4u);
    // Equal timestamps: port 0 before port 1, on every run.
    EXPECT_EQ(collector.at<ValueTuple>(0).value, 1);
    EXPECT_EQ(collector.at<ValueTuple>(1).value, 2);
    EXPECT_EQ(collector.at<ValueTuple>(2).value, 1);
    EXPECT_EQ(collector.at<ValueTuple>(3).value, 2);
  }
}

TEST(UnionNodeTest, ThreeWayMerge) {
  Topology topo;
  auto* a = topo.Add<VectorSourceNode<ValueTuple>>("a", Values({{3, 1}}));
  auto* b = topo.Add<VectorSourceNode<ValueTuple>>("b", Values({{1, 2}}));
  auto* c = topo.Add<VectorSourceNode<ValueTuple>>("c", Values({{2, 3}}));
  auto* merge = topo.Add<UnionNode>("union");
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(a, merge);
  topo.Connect(b, merge);
  topo.Connect(c, merge);
  topo.Connect(merge, sink);
  RunToCompletion(topo);
  EXPECT_EQ(collector.Timestamps(), (std::vector<int64_t>{1, 2, 3}));
}

TEST(UnionNodeTest, EmptyInputStreamDoesNotStallOthers) {
  Topology topo;
  auto* a = topo.Add<VectorSourceNode<ValueTuple>>("a", Values({{1, 1}, {2, 2}}));
  auto* b = topo.Add<VectorSourceNode<ValueTuple>>(
      "b", std::vector<IntrusivePtr<ValueTuple>>{});
  auto* merge = topo.Add<UnionNode>("union");
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(a, merge);
  topo.Connect(b, merge);
  topo.Connect(merge, sink);
  RunToCompletion(topo);
  EXPECT_EQ(collector.tuples().size(), 2u);
}

TEST(SourceTest, AssignsUniqueIdsAndStimulus) {
  Topology topo;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>(
      "src", Values({{1, 1}, {2, 2}, {3, 3}}));
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, sink);
  RunToCompletion(topo);

  ASSERT_EQ(collector.tuples().size(), 3u);
  EXPECT_NE(collector.tuples()[0]->id, collector.tuples()[1]->id);
  EXPECT_GT(collector.tuples()[0]->stimulus, 0);
  EXPECT_EQ(collector.tuples()[0]->kind, TupleKind::kSource);
  EXPECT_GT(source->active_ns(), 0);
  EXPECT_EQ(source->tuples_processed(), 3u);
}

TEST(SourceTest, ReplaysWithTimestampShift) {
  Topology topo;
  SourceOptions options;
  options.replays = 3;
  options.replay_ts_shift = 100;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>(
      "src", Values({{1, 1}, {2, 2}}), options);
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, sink);
  RunToCompletion(topo);

  EXPECT_EQ(collector.Timestamps(),
            (std::vector<int64_t>{1, 2, 101, 102, 201, 202}));
}

TEST(SourceTest, StopFlagEndsEmissionEarly) {
  Topology topo;
  std::atomic<bool> stop{false};
  SourceOptions options;
  options.stop = &stop;
  options.replays = 1000000;  // would run ~forever without the flag
  options.replay_ts_shift = 10;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>(
      "src", Values({{1, 1}, {2, 2}}), options);
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, sink);

  Runner runner({&topo});
  runner.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  runner.Join();
  EXPECT_GT(collector.tuples().size(), 0u);
}

// Records every tuple (ts and stimulus) and watermark reaching it, in
// order. It pops nothing before `source` has counted `total` emissions, so
// at batch size 1 the queue keeps each tuple and the watermark it carries
// apart from the next, and the record is the exact emission sequence rather
// than one that depends on when the queue was drained.
class EmissionProbe final : public SingleInputNode {
 public:
  struct Event {
    bool is_tuple;
    int64_t value;  // tuple ts or watermark
    bool operator==(const Event&) const = default;
  };

  EmissionProbe(std::string name, const Node* source, uint64_t total)
      : SingleInputNode(std::move(name)), source_(source), total_(total) {}

  StepResult Step(size_t max_batches) override {
    if (source_->tuples_processed() < total_) {
      // A pool task parks and is re-armed by the source's next push; a
      // dedicated thread steps again.
      std::this_thread::yield();
      return StepResult::kIdle;
    }
    return SingleInputNode::Step(max_batches);
  }

  const std::vector<Event>& events() const { return events_; }
  const std::vector<int64_t>& stimuli() const { return stimuli_; }

 protected:
  void OnTuple(TuplePtr t) override {
    events_.push_back({true, t->ts});
    stimuli_.push_back(t->stimulus);
  }
  void OnWatermark(int64_t wm) override { events_.push_back({false, wm}); }

 private:
  const Node* source_;
  uint64_t total_;
  std::vector<Event> events_;
  std::vector<int64_t> stimuli_;
};

struct EmissionRecord {
  std::vector<EmissionProbe::Event> events;
  std::vector<int64_t> stimuli;
};

EmissionRecord RunReplayingSource(SchedulerMode scheduler, double rate_tps,
                                  size_t batch_size) {
  // Equal neighbours (a swallowed watermark) and a lap boundary whose
  // watermark promises the next lap's first ts.
  const auto data = Values({{1, 1}, {2, 2}, {2, 3}, {5, 4}});
  SourceOptions options;
  options.max_rate_tps = rate_tps;
  options.replays = 3;
  options.replay_ts_shift = 10;
  Topology topo(0, ProvenanceMode::kNone,
                EngineOptions{.batch_size = batch_size,
                              .scheduler = scheduler,
                              .workers = 2});
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", data, options);
  auto* probe = topo.Add<EmissionProbe>("probe", source,
                                        data.size() * options.replays);
  topo.Connect(source, probe);
  EXPECT_EQ(source->NeedsDedicatedThread(), rate_tps > 0);
  RunToCompletion(topo);
  return {probe->events(), probe->stimuli()};
}

TEST(SourceTest, PacedReplayMatchesUnpaced) {
  const EmissionRecord unpaced =
      RunReplayingSource(SchedulerMode::kThreadPerNode, 0, 1);
  using E = EmissionProbe::Event;
  const std::vector<E> expected = {
      {true, 1},   {false, 2},  {true, 2},   {true, 2},   {false, 5},
      {true, 5},   {false, 11}, {true, 11},  {false, 12}, {true, 12},
      {true, 12},  {false, 15}, {true, 15},  {false, 21}, {true, 21},
      {false, 22}, {true, 22},  {true, 22},  {false, 25}, {true, 25}};
  ASSERT_EQ(unpaced.events, expected);

  for (SchedulerMode mode :
       {SchedulerMode::kThreadPerNode, SchedulerMode::kPool}) {
    SCOPED_TRACE(mode == SchedulerMode::kPool ? "pool" : "thread-per-node");
    // ~2000 t/s: 12 tuples take ~6 ms.
    const EmissionRecord paced = RunReplayingSource(mode, 2000, 1);
    EXPECT_EQ(paced.events, unpaced.events);
    // A paced source stamps every tuple with its own stimulus, and so it
    // does at a batch size that would share one per chunk unpaced.
    const EmissionRecord chunked =
        RunReplayingSource(mode, 2000, kDefaultBatchSize);
    for (const EmissionRecord* record : {&paced, &chunked}) {
      ASSERT_EQ(record->stimuli.size(), 12u);
      for (size_t i = 1; i < record->stimuli.size(); ++i) {
        EXPECT_GT(record->stimuli[i], record->stimuli[i - 1]) << "tuple " << i;
      }
    }
  }
}

TEST(SourceTest, RateLimitThrottlesEmission) {
  Topology topo;
  SourceOptions options;
  options.max_rate_tps = 100;  // 10 tuples should take ~100 ms
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>(
      "src",
      Values({{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1},
              {6, 1}, {7, 1}, {8, 1}, {9, 1}, {10, 1}}),
      options);
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, sink);
  RunToCompletion(topo);
  EXPECT_EQ(collector.tuples().size(), 10u);
  EXPECT_GT(source->active_ns(), 80'000'000);  // >= ~80 ms
}

}  // namespace
}  // namespace genealog
