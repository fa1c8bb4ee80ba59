// The fluent dataflow builder's plan lowering: port assignment (Join
// left/right, Union merge order, Multiplex taps), provenance weaving per
// ProvenanceMode (SU/MU/provenance sink for GL, taps + resolver for BL,
// nothing for NP), deployment cuts (Send/Receive over channels), edge
// policies (EngineOptions batch size), and plan validation errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/resolver.h"
#include "genealog/provenance_sink.h"
#include "genealog/su.h"
#include "spe/dataflow.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::KeyedTuple;
using testing::V;
using testing::ValueTuple;

std::vector<IntrusivePtr<ValueTuple>> Values(int n) {
  std::vector<IntrusivePtr<ValueTuple>> out;
  for (int i = 0; i < n; ++i) out.push_back(V(i, i * 10));
  return out;
}

std::vector<std::string> NodeNames(const Topology& topo) {
  std::vector<std::string> names;
  for (const auto& node : topo.nodes()) names.push_back(node->name());
  return names;
}

bool HasNode(const Topology& topo, const std::string& name) {
  const auto names = NodeNames(topo);
  return std::find(names.begin(), names.end(), name) != names.end();
}

// --- ports ------------------------------------------------------------------

// Join: the stream the combinator is invoked on must land on port 0 (left),
// the argument stream on port 1 (right). The combiner's argument order makes
// a swap visible in the data.
TEST(DataflowTest, JoinPortsFollowCallOrder) {
  Dataflow df;
  auto taps = df.Source<ValueTuple>("src", Values(8)).Multiplex("mux", 2);
  auto left = taps[0].Filter("keep.left",
                             [](const ValueTuple&) { return true; });
  std::vector<std::pair<int64_t, int64_t>> pairs;
  left.Join<KeyedTuple>(
          "join", taps[1], JoinOptions{0},
          [](const ValueTuple&, const ValueTuple&) { return true; },
          [](const ValueTuple& l, const ValueTuple& r) {
            return MakeTuple<KeyedTuple>(0, l.value * 1000,
                                         static_cast<double>(r.value));
          })
      .Sink("k", [&pairs](const TuplePtr& t) {
        const auto& k = static_cast<const KeyedTuple&>(*t);
        pairs.emplace_back(k.key, static_cast<int64_t>(k.value));
      });
  BuiltDataflow flow = df.Build();
  flow.Run();
  ASSERT_EQ(pairs.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    // left value rode through key*1000, right through value: a port swap
    // would flip the factor.
    EXPECT_EQ(pairs[i].first, i * 10 * 1000);
    EXPECT_EQ(pairs[i].second, i * 10);
  }
}

// Union input ports follow argument order; the deterministic merge releases
// timestamp ties by (ts, port), so putting stream B on port 1 is observable.
TEST(DataflowTest, UnionMergeOrderFollowsPortOrder) {
  std::vector<IntrusivePtr<ValueTuple>> a, b;
  for (int i = 0; i < 4; ++i) {
    a.push_back(V(i, 100 + i));  // port 0
    b.push_back(V(i, 200 + i));  // port 1, same timestamps
  }
  Dataflow df;
  auto sa = df.Source<ValueTuple>("a", a);
  auto sb = df.Source<ValueTuple>("b", b);
  std::vector<int64_t> order;
  sa.Union("u", sb).Sink("k", [&order](const TuplePtr& t) {
    order.push_back(static_cast<const ValueTuple&>(*t).value);
  });
  BuiltDataflow flow = df.Build();
  flow.Run();
  const std::vector<int64_t> want = {100, 200, 101, 201, 102, 202, 103, 203};
  EXPECT_EQ(order, want);
}

TEST(DataflowTest, MultiplexTapsAreIndependentCopies) {
  Dataflow df;
  auto taps = df.Source<ValueTuple>("src", Values(5)).Multiplex("mux", 2);
  std::vector<int64_t> evens, all;
  taps[0]
      .Filter("evens",
              [](const ValueTuple& t) { return t.value % 20 == 0; })
      .Sink("k0", [&evens](const TuplePtr& t) {
        evens.push_back(static_cast<const ValueTuple&>(*t).value);
      });
  taps[1].Sink("k1", [&all](const TuplePtr& t) {
    all.push_back(static_cast<const ValueTuple&>(*t).value);
  });
  BuiltDataflow flow = df.Build();
  flow.Run();
  EXPECT_EQ(evens, (std::vector<int64_t>{0, 20, 40}));
  EXPECT_EQ(all, (std::vector<int64_t>{0, 10, 20, 30, 40}));
}

// --- provenance weaving per mode --------------------------------------------

Dataflow MakeChain(DataflowOptions opts,
                   std::vector<IntrusivePtr<ValueTuple>> data) {
  Dataflow df(std::move(opts));
  df.Source<ValueTuple>("src", std::move(data))
      .Filter("keep", [](const ValueTuple&) { return true; })
      .Sink("k");
  return df;
}

TEST(DataflowTest, NoneModeAddsNoMachinery) {
  Dataflow df = MakeChain({}, Values(4));
  BuiltDataflow flow = df.Build();
  ASSERT_EQ(flow.topologies.size(), 1u);
  EXPECT_EQ(flow.topologies[0]->nodes().size(), 3u);  // src, keep, k
  EXPECT_EQ(flow.provenance_sink, nullptr);
  EXPECT_EQ(flow.baseline_resolver, nullptr);
  EXPECT_TRUE(flow.su_nodes.empty());
  EXPECT_EQ(flow.n_instances, 1);
  flow.Run();
  EXPECT_EQ(flow.sink()->count(), 4u);
}

TEST(DataflowTest, GenealogIntraWeavesSuBeforeSink) {
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kGenealog;
  Dataflow df = MakeChain(std::move(opts), Values(4));
  BuiltDataflow flow = df.Build();
  ASSERT_EQ(flow.topologies.size(), 1u);
  ASSERT_NE(flow.provenance_sink, nullptr);
  ASSERT_EQ(flow.su_nodes.size(), 1u);  // the Theorem 5.3 SU
  EXPECT_TRUE(HasNode(*flow.topologies[0], "SU"));
  EXPECT_TRUE(HasNode(*flow.topologies[0], "K2"));
  // SU: output 0 = SO, output 1 = U.
  EXPECT_EQ(flow.su_nodes[0]->num_outputs(), 2u);
  flow.Run();
  EXPECT_EQ(flow.sink()->count(), 4u);
  EXPECT_EQ(flow.provenance_records(), 4u);
  EXPECT_DOUBLE_EQ(flow.mean_origins_per_record(), 1.0);
}

TEST(DataflowTest, GenealogDistributedWeavesSuPerCutAndMu) {
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kGenealog;
  Dataflow df(std::move(opts));
  df.Source<ValueTuple>("src", Values(6))
      .Filter("stage1", [](const ValueTuple&) { return true; })
      .At(2)
      .Filter("stage2", [](const ValueTuple&) { return true; })
      .Sink("k");
  BuiltDataflow flow = df.Build();
  // Instances 1 and 2 plus the woven provenance instance 3.
  ASSERT_EQ(flow.topologies.size(), 3u);
  EXPECT_EQ(flow.n_instances, 3);
  EXPECT_EQ(flow.topologies[0]->instance_id(), 1);
  EXPECT_EQ(flow.topologies[1]->instance_id(), 2);
  EXPECT_EQ(flow.topologies[2]->instance_id(), 3);
  // One SU at the cut (instance 1), one before the sink (instance 2).
  ASSERT_EQ(flow.su_nodes.size(), 2u);
  EXPECT_TRUE(HasNode(*flow.topologies[1], "SU.sink"));
  EXPECT_TRUE(HasNode(*flow.topologies[0], "SU.send0"));
  // The provenance instance holds MU + K2 + the two unfolded receives.
  EXPECT_TRUE(HasNode(*flow.topologies[2], "MU"));
  EXPECT_TRUE(HasNode(*flow.topologies[2], "K2"));
  EXPECT_TRUE(HasNode(*flow.topologies[2], "recv.U_sink"));
  EXPECT_TRUE(HasNode(*flow.topologies[2], "recv.U0"));
  // Channels: data + U at the cut, derived U to the MU.
  EXPECT_EQ(flow.channels.size(), 3u);
  flow.Run();
  EXPECT_EQ(flow.sink()->count(), 6u);
  EXPECT_EQ(flow.provenance_records(), 6u);
}

// Instance ids index the per-instance memory counters, so a Topology
// rejects an id past mem::kMaxInstances by name instead of writing past
// them. GL weaves its provenance instance after the last placed one.
TEST(DataflowTest, RejectsInstanceIdsPastTheAccountingSlots) {
  auto split_at = [](ProvenanceMode mode, int instance) {
    DataflowOptions opts;
    opts.mode = mode;
    Dataflow df(std::move(opts));
    df.Source<ValueTuple>("src", Values(4))
        .Filter("stage1", [](const ValueTuple&) { return true; })
        .At(instance)
        .Filter("stage2", [](const ValueTuple&) { return true; })
        .Sink("k");
    return df;
  };
  {
    // .At(15) under GL puts the provenance instance at 16.
    Dataflow df = split_at(ProvenanceMode::kGenealog, 15);
    try {
      df.Build();
      FAIL() << "instance 16 was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("instance 16"), std::string::npos) << what;
      EXPECT_NE(what.find("[0, 16)"), std::string::npos) << what;
    }
  }
  {
    Dataflow df = split_at(ProvenanceMode::kGenealog, 14);
    BuiltDataflow flow = df.Build();
    EXPECT_EQ(flow.topologies.back()->instance_id(), 15);
    flow.Run();
    EXPECT_EQ(flow.sink()->count(), 4u);
    EXPECT_EQ(flow.provenance_records(), 4u);
  }
  {
    Dataflow df = split_at(ProvenanceMode::kNone, 15);
    BuiltDataflow flow = df.Build();
    flow.Run();
    EXPECT_EQ(flow.sink()->count(), 4u);
  }
}

TEST(DataflowTest, BaselineWeavesTapsAndResolver) {
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kBaseline;
  Dataflow df = MakeChain(std::move(opts), Values(4));
  BuiltDataflow flow = df.Build();
  ASSERT_EQ(flow.topologies.size(), 1u);
  ASSERT_NE(flow.baseline_resolver, nullptr);
  EXPECT_EQ(flow.provenance_sink, nullptr);
  EXPECT_TRUE(HasNode(*flow.topologies[0], "bl.source_tap.src"));
  EXPECT_TRUE(HasNode(*flow.topologies[0], "bl.sink_tap"));
  EXPECT_TRUE(HasNode(*flow.topologies[0], "bl.resolver"));
  // Resolver ports: 0 = annotated sink stream, 1 = the source stream.
  EXPECT_EQ(flow.baseline_resolver->num_inputs(), 2u);
  flow.Run();
  EXPECT_EQ(flow.sink()->count(), 4u);
  EXPECT_EQ(flow.provenance_records(), 4u);
}

TEST(DataflowTest, BaselineDistributedShipsSourceStream) {
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kBaseline;
  Dataflow df(std::move(opts));
  df.Source<ValueTuple>("src", Values(5))
      .At(2)
      .Filter("stage2", [](const ValueTuple&) { return true; })
      .Sink("k");
  BuiltDataflow flow = df.Build();
  ASSERT_EQ(flow.topologies.size(), 3u);
  EXPECT_TRUE(HasNode(*flow.topologies[2], "bl.resolver"));
  EXPECT_TRUE(HasNode(*flow.topologies[0], "send.source_copy0"));
  EXPECT_TRUE(HasNode(*flow.topologies[2], "recv.sink_ann"));
  flow.Run();
  EXPECT_EQ(flow.sink()->count(), 5u);
  EXPECT_EQ(flow.provenance_records(), 5u);
  EXPECT_GT(flow.network_bytes(), 0u);
}

// --- edge policies ----------------------------------------------------------

TEST(DataflowTest, EngineOptionsStampEveryTopology) {
  DataflowOptions opts;
  opts.batch_size = 64;
  opts.workers = 3;  // ignored under thread-per-node, still stamped
  Dataflow df(std::move(opts));
  df.Source<ValueTuple>("src", Values(4))
      .At(2)
      .Filter("f", [](const ValueTuple&) { return true; })
      .Sink("k");
  BuiltDataflow flow = df.Build();
  for (const auto& topo : flow.topologies) {
    EXPECT_EQ(topo->default_batch_size(), 64u);
    EXPECT_EQ(topo->workers(), 3u);
  }
  flow.Run();
  EXPECT_EQ(flow.sink()->count(), 4u);
}

// --- parallel stages --------------------------------------------------------

std::vector<IntrusivePtr<KeyedTuple>> Keyed(int n, int n_keys) {
  std::vector<IntrusivePtr<KeyedTuple>> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(MakeTuple<KeyedTuple>(i, i % n_keys, 1.0));
  }
  return out;
}

AggregateCombiner<KeyedTuple, KeyedTuple, int64_t> SumPerKey() {
  return [](const WindowView<KeyedTuple, int64_t>& w) {
    double sum = 0;
    for (const auto& t : w.tuples) sum += t->value;
    return MakeTuple<KeyedTuple>(0, w.key, sum);
  };
}

// When the merged stream feeds the sink directly (GL, intra, fused
// unfolders), each replica gets its own SU: the provenance traversal runs
// inside the shards and the single Theorem 5.3 SU disappears.
TEST(DataflowTest, GenealogWeavesPerReplicaSusWhenPartitionedStageFeedsSink) {
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kGenealog;
  Dataflow df(std::move(opts));
  df.Source<KeyedTuple>("src", Keyed(12, 4))
      .KeyBy([](const KeyedTuple& t) { return t.key; })
      .Parallel(3)
      .Aggregate<KeyedTuple>("par", AggregateOptions{4, 4}, SumPerKey())
      .Sink("k");
  BuiltDataflow flow = df.Build();
  ASSERT_EQ(flow.topologies.size(), 1u);
  const Topology& topo = *flow.topologies[0];
  EXPECT_TRUE(HasNode(topo, "par.partition"));
  EXPECT_TRUE(HasNode(topo, "par.merge"));
  EXPECT_TRUE(HasNode(topo, "par.u_merge"));
  ASSERT_EQ(flow.su_nodes.size(), 3u);  // one per replica ...
  EXPECT_TRUE(HasNode(topo, "SU.par0"));
  EXPECT_TRUE(HasNode(topo, "SU.par2"));
  EXPECT_FALSE(HasNode(topo, "SU"));  // ... instead of one after the merge
  flow.Run();
  // 12 tuples, 4 keys, tumbling 4-wide windows: one output per key per
  // window, each derived from exactly one source tuple.
  EXPECT_EQ(flow.sink()->count(), 12u);
  EXPECT_EQ(flow.provenance_records(), 12u);
  EXPECT_DOUBLE_EQ(flow.mean_origins_per_record(), 1.0);
}

// Any consumer between the merge and the sink keeps the single woven SU: the
// per-replica placement is an optimization, not a semantic change.
TEST(DataflowTest, GenealogKeepsSingleSuWhenPartitionedStageIsNotLast) {
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kGenealog;
  Dataflow df(std::move(opts));
  df.Source<KeyedTuple>("src", Keyed(12, 4))
      .KeyBy([](const KeyedTuple& t) { return t.key; })
      .Parallel(2)
      .Aggregate<KeyedTuple>("par", AggregateOptions{4, 4}, SumPerKey())
      .Filter("keep", [](const KeyedTuple&) { return true; })
      .Sink("k");
  BuiltDataflow flow = df.Build();
  ASSERT_EQ(flow.su_nodes.size(), 1u);
  EXPECT_TRUE(HasNode(*flow.topologies[0], "SU"));
  EXPECT_FALSE(HasNode(*flow.topologies[0], "SU.par0"));
  flow.Run();
  EXPECT_EQ(flow.sink()->count(), 12u);
  EXPECT_EQ(flow.provenance_records(), 12u);
}

// A parallel stage honors .At(n) deployment cuts like any other operator;
// distributed builds fall back to the merge-then-SU placement (the cut SU
// and the sink SU, exactly as in the single-instance plan).
TEST(DataflowTest, PartitionedStageHonorsDeploymentCut) {
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kGenealog;
  Dataflow df(std::move(opts));
  df.Source<KeyedTuple>("src", Keyed(12, 4))
      .At(2)
      .KeyBy([](const KeyedTuple& t) { return t.key; })
      .Parallel(2)
      .Aggregate<KeyedTuple>("par", AggregateOptions{4, 4}, SumPerKey())
      .Sink("k");
  BuiltDataflow flow = df.Build();
  ASSERT_EQ(flow.topologies.size(), 3u);  // 2 processing + provenance
  EXPECT_TRUE(HasNode(*flow.topologies[1], "par.partition"));
  EXPECT_TRUE(HasNode(*flow.topologies[1], "par.merge"));
  EXPECT_FALSE(HasNode(*flow.topologies[1], "SU.par0"));
  EXPECT_EQ(flow.su_nodes.size(), 2u);  // cut + sink
  flow.Run();
  EXPECT_EQ(flow.sink()->count(), 12u);
  EXPECT_EQ(flow.provenance_records(), 12u);
}

// --- validation -------------------------------------------------------------

TEST(DataflowTest, RejectsUnconsumedAndDoublyConsumedStreams) {
  {
    Dataflow df;
    df.Source<ValueTuple>("src", Values(1));  // never sinked
    EXPECT_THROW(df.Build(), std::logic_error);
  }
  {
    Dataflow df;
    auto s = df.Source<ValueTuple>("src", Values(1));
    s.Sink("k1");
    s.Sink("k2");  // same stream consumed twice
    EXPECT_THROW(df.Build(), std::logic_error);
  }
}

TEST(DataflowTest, RejectsMultipleSinksInProvenanceModes) {
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kGenealog;
  Dataflow df(std::move(opts));
  auto taps = df.Source<ValueTuple>("src", Values(1)).Multiplex("mux", 2);
  taps[0].Sink("k1");
  taps[1].Sink("k2");
  EXPECT_THROW(df.Build(), std::logic_error);
}

// The lineage store is fed by GL provenance records: asking for it, or for
// serving it, under NP or BL is rejected by name instead of building a
// dataflow with no store and no service.
TEST(DataflowTest, RejectsLineageSettingsOutsideGenealog) {
  struct Case {
    ProvenanceMode mode;
    bool store;
    const char* serve_addr;
    const char* setting;
  };
  for (const Case& c :
       {Case{ProvenanceMode::kNone, true, "", "lineage_store"},
        Case{ProvenanceMode::kBaseline, true, "", "lineage_store"},
        Case{ProvenanceMode::kBaseline, false, "127.0.0.1:0",
             "lineage_serve_addr"}}) {
    SCOPED_TRACE(std::string(ToString(c.mode)) + " " + c.setting);
    DataflowOptions opts;
    opts.mode = c.mode;
    opts.lineage_store = c.store;
    opts.lineage_serve_addr = c.serve_addr;
    Dataflow df(std::move(opts));
    df.Source<ValueTuple>("src", Values(2)).Sink("k");
    try {
      df.Build();
      ADD_FAILURE() << "built a dataflow that ignores " << c.setting;
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.setting), std::string::npos) << what;
      EXPECT_NE(what.find(ToString(c.mode)), std::string::npos) << what;
    }
  }
}

TEST(DataflowTest, ParallelRejectsNonPositiveShardCounts) {
  Dataflow df;
  auto keyed = df.Source<KeyedTuple>("src", Keyed(4, 2))
                   .KeyBy([](const KeyedTuple& t) { return t.key; });
  EXPECT_THROW(keyed.Parallel(0), std::logic_error);
  EXPECT_THROW(keyed.Parallel(-3), std::logic_error);
  keyed.Parallel(2)
      .Aggregate<KeyedTuple>("par", AggregateOptions{4, 4}, SumPerKey())
      .Sink("k");
  df.Build().Run();
}

// The N-chain safety argument only covers a key-partitioned stage that is
// the last stateful step before the sink: a second stateful consumer after
// the merge would observe the interleaved stream, so validation rejects it.
TEST(DataflowTest, RejectsStatefulConsumerDownstreamOfPartitionedStage) {
  {
    Dataflow df;
    df.Source<KeyedTuple>("src", Keyed(8, 2))
        .KeyBy([](const KeyedTuple& t) { return t.key; })
        .Parallel(2)
        .Aggregate<KeyedTuple>("par", AggregateOptions{4, 4}, SumPerKey())
        .Aggregate<KeyedTuple>("agg2", AggregateOptions{8, 8},
                               [](const KeyedTuple& t) { return t.key; },
                               SumPerKey())
        .Sink("k");
    EXPECT_THROW(df.Build(), std::logic_error);
  }
  {
    // Also rejected through intervening stateless operators.
    Dataflow df;
    auto merged = df.Source<KeyedTuple>("src", Keyed(8, 2))
                      .KeyBy([](const KeyedTuple& t) { return t.key; })
                      .Parallel(2)
                      .Aggregate<KeyedTuple>("par", AggregateOptions{4, 4},
                                             SumPerKey())
                      .Filter("keep", [](const KeyedTuple&) { return true; });
    auto other = df.Source<KeyedTuple>("src2", Keyed(8, 2));
    merged
        .Join<KeyedTuple>("join", other, JoinOptions{4},
                          [](const KeyedTuple& l, const KeyedTuple& r) {
                            return l.key == r.key;
                          },
                          [](const KeyedTuple& l, const KeyedTuple& r) {
                            return MakeTuple<KeyedTuple>(0, l.key,
                                                         l.value + r.value);
                          })
        .Sink("k");
    EXPECT_THROW(df.Build(), std::logic_error);
  }
}

TEST(DataflowTest, RejectsEmptyPlanAndDoubleBuild) {
  {
    Dataflow df;
    EXPECT_THROW(df.Build(), std::logic_error);
  }
  {
    Dataflow df;
    df.Source<ValueTuple>("src", Values(1)).Sink("k");
    BuiltDataflow flow = df.Build();
    EXPECT_THROW(df.Build(), std::logic_error);
    flow.Run();
  }
}

}  // namespace
}  // namespace genealog
