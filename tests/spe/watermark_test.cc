// Watermark-propagation properties: every operator must forward a correct,
// monotone watermark even when it emits no tuples, or downstream merges and
// window firings would stall or misfire. These tests wire a WatermarkProbe
// (a pass-through recording node) behind each operator kind and check the
// invariant "every later tuple has ts >= every earlier watermark".
#include <gtest/gtest.h>

#include "common/rng.h"
#include "spe/aggregate.h"
#include "spe/join.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::KeyedTuple;
using testing::V;
using testing::ValueTuple;

// Records the interleaved sequence of tuples and watermarks it sees.
class WatermarkProbe final : public SingleInputNode {
 public:
  struct Event {
    bool is_tuple;
    int64_t value;  // tuple ts or watermark
  };

  explicit WatermarkProbe(std::string name)
      : SingleInputNode(std::move(name)) {}

  const std::vector<Event>& events() const { return events_; }

  // The invariant: no tuple may have ts < any previously seen watermark.
  void CheckInvariant() const {
    int64_t max_wm = kWatermarkMin;
    int64_t last_wm = kWatermarkMin;
    for (const Event& e : events_) {
      if (e.is_tuple) {
        EXPECT_GE(e.value, max_wm) << "tuple violates earlier watermark";
      } else {
        EXPECT_GT(e.value, last_wm) << "watermarks must strictly increase";
        last_wm = e.value;
        max_wm = std::max(max_wm, e.value);
      }
    }
  }

  bool saw_watermark() const {
    for (const Event& e : events_) {
      if (!e.is_tuple) return true;
    }
    return false;
  }

 protected:
  void OnTuple(TuplePtr t) override {
    events_.push_back({true, t->ts});
    EmitTupleAll(t);
  }
  void OnWatermark(int64_t wm) override {
    events_.push_back({false, wm});
    ForwardWatermark(wm);
  }

 private:
  std::vector<Event> events_;
};

std::vector<IntrusivePtr<ValueTuple>> Ramp(int n, int64_t step) {
  std::vector<IntrusivePtr<ValueTuple>> out;
  for (int i = 0; i < n; ++i) out.push_back(V(i * step, i));
  return out;
}

TEST(WatermarkTest, SourceInterleavesWatermarks) {
  Topology topo;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(50, 3));
  auto* probe = topo.Add<WatermarkProbe>("probe");
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(source, probe);
  topo.Connect(probe, sink);
  RunToCompletion(topo);
  probe->CheckInvariant();
  EXPECT_TRUE(probe->saw_watermark());
}

TEST(WatermarkTest, DroppingFilterStillForwards) {
  Topology topo;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(50, 3));
  auto* filter = topo.Add<FilterNode<ValueTuple>>(
      "drop_all", [](const ValueTuple&) { return false; });
  auto* probe = topo.Add<WatermarkProbe>("probe");
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(source, filter);
  topo.Connect(filter, probe);
  topo.Connect(probe, sink);
  RunToCompletion(topo);
  probe->CheckInvariant();
  EXPECT_TRUE(probe->saw_watermark());  // despite zero tuples
}

TEST(WatermarkTest, AggregateBoundIsTightAndSafe) {
  // Sliding aggregate: forwarded watermarks must never contradict a later
  // output (safety), and must advance (liveness).
  Topology topo;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(200, 7));
  auto* agg = topo.Add<AggregateNode<ValueTuple, ValueTuple>>(
      "agg", AggregateOptions{40, 10},
      [](const ValueTuple&) { return int64_t{0}; },
      [](const WindowView<ValueTuple, int64_t>& w) {
        return MakeTuple<ValueTuple>(0, static_cast<int64_t>(w.tuples.size()));
      });
  auto* probe = topo.Add<WatermarkProbe>("probe");
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(source, agg);
  topo.Connect(agg, probe);
  topo.Connect(probe, sink);
  RunToCompletion(topo);
  probe->CheckInvariant();
  EXPECT_TRUE(probe->saw_watermark());
}

TEST(WatermarkTest, AggregateEmitAtEndBound) {
  Topology topo;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(100, 5));
  auto* agg = topo.Add<AggregateNode<ValueTuple, ValueTuple>>(
      "agg",
      AggregateOptions{24, 24, WindowBounds::kLeftClosedRightOpen,
                       EmitAt::kWindowEnd},
      [](const ValueTuple&) { return int64_t{0}; },
      [](const WindowView<ValueTuple, int64_t>& w) {
        return MakeTuple<ValueTuple>(0, static_cast<int64_t>(w.tuples.size()));
      });
  auto* probe = topo.Add<WatermarkProbe>("probe");
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(source, agg);
  topo.Connect(agg, probe);
  topo.Connect(probe, sink);
  RunToCompletion(topo);
  probe->CheckInvariant();
}

TEST(WatermarkTest, JoinForwardsMergedWatermark) {
  // This test asserts an intermediate (finite) merged watermark reaches the
  // probe. At the default batch size the whole 60-tuple input coalesces into
  // one batch per port whose flush rides along, so the merge jumps straight
  // to +inf (swallowed by design); per-tuple handover keeps the incremental
  // cadence the assertion is about.
  Topology topo(0, ProvenanceMode::kNone, EngineOptions{.batch_size = 1});
  std::vector<IntrusivePtr<KeyedTuple>> left;
  std::vector<IntrusivePtr<KeyedTuple>> right;
  for (int i = 0; i < 60; ++i) {
    left.push_back(MakeTuple<KeyedTuple>(2 * i, i % 3, 1.0));
    right.push_back(MakeTuple<KeyedTuple>(2 * i + 1, i % 3, 2.0));
  }
  auto* l = topo.Add<VectorSourceNode<KeyedTuple>>("l", std::move(left));
  auto* r = topo.Add<VectorSourceNode<KeyedTuple>>("r", std::move(right));
  auto* join = topo.Add<JoinNode<KeyedTuple, KeyedTuple, KeyedTuple>>(
      "join", JoinOptions{5},
      [](const KeyedTuple& a, const KeyedTuple& b) { return a.key == b.key; },
      [](const KeyedTuple& a, const KeyedTuple& b) {
        return MakeTuple<KeyedTuple>(0, a.key, a.value + b.value);
      });
  auto* probe = topo.Add<WatermarkProbe>("probe");
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(l, join);
  topo.Connect(r, join);
  topo.Connect(join, probe);
  topo.Connect(probe, sink);
  RunToCompletion(topo);
  probe->CheckInvariant();
  EXPECT_TRUE(probe->saw_watermark());
}

TEST(WatermarkTest, UnionForwardsMinimum) {
  Topology topo;
  auto* fast = topo.Add<VectorSourceNode<ValueTuple>>("fast", Ramp(100, 1));
  auto* slow = topo.Add<VectorSourceNode<ValueTuple>>("slow", Ramp(10, 10));
  auto* merge = topo.Add<UnionNode>("union");
  auto* probe = topo.Add<WatermarkProbe>("probe");
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(fast, merge);
  topo.Connect(slow, merge);
  topo.Connect(merge, probe);
  topo.Connect(probe, sink);
  RunToCompletion(topo);
  probe->CheckInvariant();
}

TEST(WatermarkTest, TupleTimestampsRaisePortWatermarksImplicitly) {
  // A merge fed by tuple-only streams (watermarks stripped) still makes
  // progress because each tuple's own ts raises its port watermark; the
  // tail is drained at flush.
  class WatermarkStripper final : public SingleInputNode {
   public:
    explicit WatermarkStripper(std::string name)
        : SingleInputNode(std::move(name)) {}

   protected:
    void OnTuple(TuplePtr t) override { EmitTupleAll(t); }
    void OnWatermark(int64_t) override {}  // swallow
  };

  Topology topo;
  auto* a = topo.Add<VectorSourceNode<ValueTuple>>("a", Ramp(20, 2));
  auto* b = topo.Add<VectorSourceNode<ValueTuple>>("b", Ramp(20, 3));
  auto* strip_a = topo.Add<WatermarkStripper>("strip_a");
  auto* strip_b = topo.Add<WatermarkStripper>("strip_b");
  auto* merge = topo.Add<UnionNode>("union");
  testing::Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(a, strip_a);
  topo.Connect(b, strip_b);
  topo.Connect(strip_a, merge);
  topo.Connect(strip_b, merge);
  topo.Connect(merge, sink);
  RunToCompletion(topo);
  EXPECT_EQ(collector.tuples().size(), 40u);
  const auto ts = collector.Timestamps();
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
}

}  // namespace
}  // namespace genealog
