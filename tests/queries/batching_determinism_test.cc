// The batch size must be invisible in the data: at every batch size the
// engine must produce byte-identical sink output sequences and identical
// provenance traversals. These tests sweep batch {1, 4, 64, 1024} over
// determinism_test-style topologies (the hostile diamond merge, whose join
// queue is fed by two producers), a multi-source union chain, and full Q1
// provenance runs (intra-process and distributed GL, which also exercises
// the batch wire frames), always comparing against batch 1, where every
// tuple is handed over on its own.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "queries/queries.h"
#include "queries/query_helpers.h"
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

using queries::QueryBuildOptions;
using queries::QueryRunResult;
using queries::RunQuery;
using testing::Collector;
using testing::KeyedTuple;

constexpr size_t kSweep[] = {1, 4, 64, 1024};

std::vector<IntrusivePtr<KeyedTuple>> RandomKeyed(uint64_t seed, int n) {
  SplitMix64 rng(seed);
  std::vector<IntrusivePtr<KeyedTuple>> out;
  int64_t ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += rng.UniformInt(0, 2);  // many timestamp ties
    out.push_back(MakeTuple<KeyedTuple>(ts, rng.UniformInt(0, 4),
                                        static_cast<double>(i)));
  }
  return out;
}

// The Q4 shape: Multiplex -> {Aggregate, Filter} -> Join. A diamond with a
// slow (windowed) branch and a fast branch is the hardest case for
// deterministic merging — and for batching, since the branches chunk
// independently.
std::vector<std::tuple<int64_t, int64_t, double>> RunDiamond(
    uint64_t seed, size_t batch_size) {
  Topology topo(0, ProvenanceMode::kNone,
                EngineOptions{.batch_size = batch_size});
  auto* source =
      topo.Add<VectorSourceNode<KeyedTuple>>("src", RandomKeyed(seed, 400));
  auto* mux = topo.Add<MultiplexNode>("mux");
  auto* agg = topo.Add<AggregateNode<KeyedTuple, KeyedTuple>>(
      "agg", AggregateOptions{10, 10},
      [](const KeyedTuple& t) { return t.key; },
      [](const WindowView<KeyedTuple, int64_t>& w) {
        double sum = 0;
        for (const auto& t : w.tuples) sum += t->value;
        return MakeTuple<KeyedTuple>(0, w.key, sum);
      });
  auto* filter = topo.Add<FilterNode<KeyedTuple>>(
      "f", [](const KeyedTuple& t) { return t.ts % 10 == 0; });
  auto* join = topo.Add<JoinNode<KeyedTuple, KeyedTuple, KeyedTuple>>(
      "join", JoinOptions{10},
      [](const KeyedTuple& l, const KeyedTuple& r) { return l.key == r.key; },
      [](const KeyedTuple& l, const KeyedTuple& r) {
        return MakeTuple<KeyedTuple>(0, l.key, l.value * 1000 + r.value);
      });
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(source, mux);
  topo.Connect(mux, agg);
  topo.Connect(mux, filter);
  topo.Connect(agg, join);     // port 0
  topo.Connect(filter, join);  // port 1
  topo.Connect(join, sink);
  RunToCompletion(topo);

  std::vector<std::tuple<int64_t, int64_t, double>> out;
  for (const auto& t : collector.tuples()) {
    const auto& k = static_cast<const KeyedTuple&>(*t);
    out.emplace_back(t->ts, k.key, k.value);
  }
  return out;
}

TEST(BatchingDeterminismTest, DiamondOutputIsDataPlaneInvariant) {
  const auto reference = RunDiamond(7, 1);
  ASSERT_FALSE(reference.empty());
  for (size_t batch_size : kSweep) {
    for (int run = 0; run < 2; ++run) {
      EXPECT_EQ(RunDiamond(7, batch_size), reference)
          << "batch_size " << batch_size << " run " << run;
    }
  }
}

std::vector<std::pair<int64_t, double>> RunUnionChain(uint64_t seed,
                                                      size_t batch_size) {
  Topology topo(0, ProvenanceMode::kNone,
                EngineOptions{.batch_size = batch_size});
  auto* a = topo.Add<VectorSourceNode<KeyedTuple>>("a", RandomKeyed(seed, 300));
  auto* b =
      topo.Add<VectorSourceNode<KeyedTuple>>("b", RandomKeyed(seed + 1, 300));
  auto* c =
      topo.Add<VectorSourceNode<KeyedTuple>>("c", RandomKeyed(seed + 2, 300));
  auto* u1 = topo.Add<UnionNode>("u1");
  auto* u2 = topo.Add<UnionNode>("u2");
  Collector collector;
  auto* sink = collector.AttachSink(topo);
  topo.Connect(a, u1);
  topo.Connect(b, u1);
  topo.Connect(u1, u2);
  topo.Connect(c, u2);
  topo.Connect(u2, sink);
  RunToCompletion(topo);

  std::vector<std::pair<int64_t, double>> out;
  for (const auto& t : collector.tuples()) {
    out.emplace_back(t->ts, static_cast<const KeyedTuple&>(*t).value);
  }
  return out;
}

TEST(BatchingDeterminismTest, UnionChainIsDataPlaneInvariant) {
  const auto reference = RunUnionChain(11, 1);
  ASSERT_FALSE(reference.empty());
  for (size_t batch_size : kSweep) {
    for (int run = 0; run < 2; ++run) {
      EXPECT_EQ(RunUnionChain(11, batch_size), reference)
          << "batch_size " << batch_size << " run " << run;
    }
  }
}

lr::LinearRoadData SmallLr() {
  lr::LinearRoadConfig config;
  config.n_cars = 40;
  config.duration_s = 2400;
  config.stop_probability = 0.02;
  config.seed = 5;
  return lr::GenerateLinearRoad(config);
}

// Full Q1 with GeneaLog provenance: sink outputs and the provenance
// traversals recorded by K2 must be identical at every batch size. The sink
// sequence is compared in emission order (byte-identical stream), the
// records canonically (their finalize order legitimately depends on
// watermark granularity, their contents must not).
struct Q1Run {
  std::vector<std::string> ordered_sink;
  QueryRunResult canonical;
};

Q1Run RunQ1(const lr::LinearRoadData& data, size_t batch_size,
            bool distributed) {
  Q1Run run;
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.distributed = distributed;
  options.batch_size = batch_size;
  options.sink_consumer = [&run](const TuplePtr& t) {
    run.ordered_sink.push_back(std::to_string(t->ts) + "|" + t->DebugPayload());
  };
  options.provenance_consumer = [&run](const ProvenanceRecord& r) {
    queries::CanonicalRecord record;
    record.derived_ts = r.derived_ts;
    record.derived_payload = r.derived->DebugPayload();
    for (const TuplePtr& o : r.origins) {
      record.origins.emplace_back(o->ts, o->DebugPayload());
    }
    std::sort(record.origins.begin(), record.origins.end());
    run.canonical.records.push_back(std::move(record));
  };
  BuiltDataflow q = queries::BuildQ1Fluent(data, std::move(options));
  q.Run();
  run.canonical.Canonicalize();
  return run;
}

void SweepQ1(bool distributed) {
  const lr::LinearRoadData data = SmallLr();
  const Q1Run reference = RunQ1(data, 1, distributed);
  ASSERT_FALSE(reference.ordered_sink.empty());
  ASSERT_FALSE(reference.canonical.records.empty());
  for (size_t batch_size : kSweep) {
    const Q1Run run = RunQ1(data, batch_size, distributed);
    EXPECT_EQ(run.ordered_sink, reference.ordered_sink)
        << "batch_size " << batch_size;
    EXPECT_EQ(run.canonical.records, reference.canonical.records)
        << "batch_size " << batch_size;
  }
}

TEST(BatchingDeterminismTest, Q1ProvenanceIsDataPlaneInvariant) {
  SweepQ1(/*distributed=*/false);
}

TEST(BatchingDeterminismTest, Q1DistributedProvenanceIsDataPlaneInvariant) {
  SweepQ1(/*distributed=*/true);
}

}  // namespace
}  // namespace genealog
