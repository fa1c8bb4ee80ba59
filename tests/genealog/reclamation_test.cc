// Challenge C2 (§3, §5): GeneaLog must not retain the source streams.
// Reachability does the work — a source tuple lives exactly as long as some
// downstream tuple references it, and is reclaimed the moment the last sink
// tuple it contributed to is dropped. The baseline, by contrast, retains
// every source tuple in its store.
#include <gtest/gtest.h>

#include "baseline/resolver.h"
#include "common/memory_accounting.h"
#include "genealog/provenance_sink.h"
#include "genealog/su.h"
#include "spe/aggregate.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

std::vector<IntrusivePtr<ValueTuple>> Ramp(int n, int64_t step = 1) {
  std::vector<IntrusivePtr<ValueTuple>> out;
  for (int i = 0; i < n; ++i) out.push_back(V(i * step, i));
  return out;
}

class ReclamationTest : public ::testing::Test {
 protected:
  void SetUp() override { base_ = mem::LiveTupleCount(); }
  int64_t LiveDelta() const { return mem::LiveTupleCount() - base_; }
  int64_t base_ = 0;
};

TEST_F(ReclamationTest, AllTuplesReclaimedAfterNpRun) {
  {
    Topology topo(1, ProvenanceMode::kNone);
    auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(1000));
    auto* filter = topo.Add<FilterNode<ValueTuple>>(
        "f", [](const ValueTuple& t) { return t.value % 10 == 0; });
    auto* sink = topo.Add<SinkNode>("sink");
    topo.Connect(source, filter);
    topo.Connect(filter, sink);
    RunToCompletion(topo);
    // The data vector still lives inside the topology's source node.
    EXPECT_EQ(LiveDelta(), 1000);
  }
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(ReclamationTest, GenealogGraphsReclaimedOnceSinkTuplesDropped) {
  {
    Topology topo(1, ProvenanceMode::kGenealog);
    auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(1000));
    auto* agg = topo.Add<AggregateNode<ValueTuple, ValueTuple>>(
        "agg", AggregateOptions{10, 10},
        [](const ValueTuple&) { return int64_t{0}; },
        [](const WindowView<ValueTuple, int64_t>& w) {
          return MakeTuple<ValueTuple>(0,
                                       static_cast<int64_t>(w.tuples.size()));
        });
    auto* su = topo.Add<SuNode>("su");
    auto* sink = topo.Add<SinkNode>("sink");  // drops tuples on consumption
    ProvenanceSinkSpec pso;
    auto* k2 = topo.Add<ProvenanceSinkNode>("k2", pso);
    topo.Connect(source, agg);
    topo.Connect(agg, su);
    topo.Connect(su, sink);
    topo.Connect(su, k2);
    RunToCompletion(topo);
    EXPECT_EQ(LiveDelta(), 1000);  // only the source's own data vector
  }
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(ReclamationTest, NonContributingTuplesReclaimedDuringRun) {
  // A filter drops 90% of tuples before the instrumented aggregate; dropped
  // tuples must be reclaimed during the run, not retained by provenance.
  // We probe live counts mid-run via a map stage after the filter.
  int64_t max_live = 0;
  const int64_t base = base_;
  {
    Topology topo(1, ProvenanceMode::kGenealog);
    auto* source =
        topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(20000));
    auto* filter = topo.Add<FilterNode<ValueTuple>>(
        "f", [](const ValueTuple& t) { return t.value % 10 == 0; });
    auto* probe = topo.Add<MapNode<ValueTuple, ValueTuple>>(
        "probe",
        [&max_live, base](const ValueTuple& in, MapCollector<ValueTuple>& out) {
          max_live = std::max(max_live, mem::LiveTupleCount() - base);
          out.Emit(MakeTuple<ValueTuple>(0, in.value));
        });
    auto* sink = topo.Add<SinkNode>("sink");
    topo.Connect(source, filter);
    topo.Connect(filter, probe);
    topo.Connect(probe, sink);
    RunToCompletion(topo);
  }
  // The replayed data vector holds 20000; in-flight tuples are bounded by
  // queue capacities, not by the stream length: well below 2x the data size.
  EXPECT_LT(max_live, 20000 + 3 * static_cast<int64_t>(kDefaultQueueCapacity));
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(ReclamationTest, SinkTupleKeepsExactlyItsContributionGraphAlive) {
  // Hold the sink tuples; 1000 sources in 100-tuple windows -> each sink
  // tuple pins its 100 sources (plus itself) until released.
  std::vector<TuplePtr> held;
  {
    Topology topo(1, ProvenanceMode::kGenealog);
    auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(1000));
    auto* agg = topo.Add<AggregateNode<ValueTuple, ValueTuple>>(
        "agg", AggregateOptions{100, 100},
        [](const ValueTuple&) { return int64_t{0}; },
        [](const WindowView<ValueTuple, int64_t>& w) {
          return MakeTuple<ValueTuple>(0,
                                       static_cast<int64_t>(w.tuples.size()));
        });
    auto* sink = topo.Add<SinkNode>(
        "sink", [&held](const TuplePtr& t) { held.push_back(t); });
    topo.Connect(source, agg);
    topo.Connect(agg, sink);
    RunToCompletion(topo);
  }
  // Topology gone; the held sink tuples pin all 1000 sources + 10 outputs.
  EXPECT_EQ(LiveDelta(), 1010);
  held.resize(5);  // release half the alerts -> half the graphs reclaim
  EXPECT_EQ(LiveDelta(), 505);
  held.clear();
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(ReclamationTest, BaselineStoreRetainsAllSourceTuples) {
  // The contrast case: BL's store holds every source tuple copy at end of
  // run (the paper's storage blow-up), even though only 10% contribute.
  Topology topo(1, ProvenanceMode::kBaseline);
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(1000));
  auto* tap = topo.Add<MultiplexNode>("tap");
  auto* filter = topo.Add<FilterNode<ValueTuple>>(
      "f", [](const ValueTuple& t) { return t.value % 10 == 0; });
  auto* sink_tap = topo.Add<MultiplexNode>("sink_tap");
  auto* sink = topo.Add<SinkNode>("sink");
  BaselineResolverOptions bro;
  bro.slack = 0;
  auto* resolver = topo.Add<BaselineResolverNode>("resolver", bro);
  topo.Connect(source, tap);
  topo.Connect(tap, filter);
  topo.Connect(filter, sink_tap);
  topo.Connect(sink_tap, sink);
  topo.Connect(sink_tap, resolver);  // port 0: annotated sink stream
  topo.Connect(tap, resolver);       // port 1: source store feed
  RunToCompletion(topo);

  EXPECT_EQ(resolver->store_peak_size(), 1000u);
  EXPECT_EQ(resolver->output().records(), 100u);
  EXPECT_EQ(resolver->missing_ids(), 0u);
}

TEST_F(ReclamationTest, BaselineOracleEvictionBoundsStore) {
  // The ablation: with the (generous) oracle eviction horizon the store
  // stays bounded by the window span instead of the stream length.
  Topology topo(1, ProvenanceMode::kBaseline);
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(5000));
  auto* tap = topo.Add<MultiplexNode>("tap");
  auto* filter = topo.Add<FilterNode<ValueTuple>>(
      "f", [](const ValueTuple& t) { return t.value % 10 == 0; });
  auto* sink_tap = topo.Add<MultiplexNode>("sink_tap");
  auto* sink = topo.Add<SinkNode>("sink");
  BaselineResolverOptions bro;
  bro.slack = 50;
  bro.evict = true;
  auto* resolver = topo.Add<BaselineResolverNode>("resolver", bro);
  topo.Connect(source, tap);
  topo.Connect(tap, filter);
  topo.Connect(filter, sink_tap);
  topo.Connect(sink_tap, sink);
  topo.Connect(sink_tap, resolver);
  topo.Connect(tap, resolver);
  RunToCompletion(topo);

  EXPECT_LT(resolver->store_peak_size(), 1000u);
  EXPECT_EQ(resolver->output().records(), 500u);
  EXPECT_EQ(resolver->missing_ids(), 0u);
}

}  // namespace
}  // namespace genealog
