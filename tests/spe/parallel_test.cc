#include "spe/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "genealog/provenance_record.h"
#include "spe/dataflow.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::Collector;
using testing::KeyedTuple;

std::vector<IntrusivePtr<KeyedTuple>> RandomKeyed(uint64_t seed, int n,
                                                  int n_keys) {
  SplitMix64 rng(seed);
  std::vector<IntrusivePtr<KeyedTuple>> out;
  int64_t ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += rng.UniformInt(0, 2);
    out.push_back(MakeTuple<KeyedTuple>(ts, rng.UniformInt(0, n_keys - 1),
                                        1.0));
  }
  return out;
}

AggregateCombiner<KeyedTuple, KeyedTuple, int64_t> CountPerKey() {
  return [](const WindowView<KeyedTuple, int64_t>& w) {
    return MakeTuple<KeyedTuple>(0, w.key,
                                 static_cast<double>(w.tuples.size()));
  };
}

struct Row {
  int64_t ts;
  int64_t key;
  double value;
  bool operator==(const Row&) const = default;
  auto operator<=>(const Row&) const = default;
};

// Counts per key over tumbling windows of 10. Parallelism 0 is the
// reference single Aggregate; n >= 1 is the fluent key-partitioned stage
// `.KeyBy(key).Parallel(n).Aggregate(...)`. Under GL, `records` receives the
// woven provenance sink's records.
std::vector<Row> RunCountQuery(int parallelism, ProvenanceMode mode,
                               std::vector<ProvenanceRecord>* records =
                                   nullptr) {
  DataflowOptions options;
  options.mode = mode;
  if (records != nullptr) {
    options.provenance_consumer = [records](const ProvenanceRecord& r) {
      records->push_back(r);
    };
  }
  Dataflow df(options);
  Stream<KeyedTuple> source =
      df.Source<KeyedTuple>("src", RandomKeyed(3, 600, 16));
  auto key_fn = [](const KeyedTuple& t) { return t.key; };
  Stream<KeyedTuple> counts =
      parallelism == 0
          ? source.Aggregate<KeyedTuple>("agg", AggregateOptions{10, 10},
                                         key_fn, CountPerKey())
          : source.KeyBy(key_fn).Parallel(parallelism).Aggregate<KeyedTuple>(
                "par", AggregateOptions{10, 10}, CountPerKey());
  std::vector<Row> rows;
  counts.Sink("sink", [&rows](const TuplePtr& t) {
    const auto& k = static_cast<const KeyedTuple&>(*t);
    rows.push_back(Row{t->ts, k.key, k.value});
  });
  BuiltDataflow flow = df.Build();
  flow.Run();
  return rows;
}

class ParallelAggregateTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelAggregateTest, SameResultsAsSingleInstance) {
  auto reference = RunCountQuery(0, ProvenanceMode::kNone);
  auto parallel = RunCountQuery(GetParam(), ProvenanceMode::kNone);
  ASSERT_FALSE(reference.empty());
  // Emission-order identical, not just canonically equal: the KeyedMergeNode
  // re-sorts each watermark-complete slice by (ts, group key), which is
  // exactly the single instance's (fire_at, key) heap order.
  EXPECT_EQ(parallel, reference);
}

TEST_P(ParallelAggregateTest, RunsAreDeterministic) {
  auto first = RunCountQuery(GetParam(), ProvenanceMode::kNone);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(RunCountQuery(GetParam(), ProvenanceMode::kNone), first);
  }
}

TEST_P(ParallelAggregateTest, OutputIsTimestampSorted) {
  auto rows = RunCountQuery(GetParam(), ProvenanceMode::kNone);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].ts, rows[i].ts);
  }
}

TEST_P(ParallelAggregateTest, ProvenanceWorksInsidePartitions) {
  std::vector<ProvenanceRecord> records;
  const std::vector<Row> rows =
      RunCountQuery(GetParam(), ProvenanceMode::kGenealog, &records);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.size(), rows.size());
  for (const ProvenanceRecord& record : records) {
    const auto& out = static_cast<const KeyedTuple&>(*record.derived);
    // Count aggregates: provenance size equals the counted value, and all
    // origins carry the output's key.
    EXPECT_EQ(static_cast<double>(record.origins.size()), out.value);
    for (const TuplePtr& origin : record.origins) {
      EXPECT_EQ(origin->kind, TupleKind::kSource);
      EXPECT_EQ(static_cast<const KeyedTuple&>(*origin).key, out.key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, ParallelAggregateTest,
                         ::testing::Values(1, 2, 3, 4, 8));

// The routing function is part of the determinism contract: a merged parallel
// stage only reproduces the single-instance emission order if every replica
// sees exactly the keys the plan says it sees, on every run, at every batch
// size. Pin the SplitMix64-finalized assignment to golden values so a silent
// change to the hash (or the modulo) fails loudly instead of as a reshuffle.
TEST(KeyPartitionTest, PartitionAssignmentIsPinned) {
  using P = KeyPartitionNode<KeyedTuple>;
  // shards=1 is the identity regardless of hash.
  for (uint64_t k = 0; k < 100; ++k) EXPECT_EQ(P::PartitionOf(k, 1), 0u);
  // Golden SplitMix64-finalizer assignments for keys 0..7.
  constexpr size_t kMod3[] = {0, 1, 1, 2, 2, 0, 1, 1};
  constexpr size_t kMod4[] = {0, 1, 2, 0, 0, 0, 0, 0};
  for (uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(P::PartitionOf(k, 3), kMod3[k]) << "key " << k;
    EXPECT_EQ(P::PartitionOf(k, 4), kMod4[k]) << "key " << k;
  }
  // Spot-check the finalized value itself (key 1) so the constants above
  // can't drift together with a changed mixer.
  constexpr uint64_t kMixOfOne = 6238072747940578789ULL;
  EXPECT_EQ(P::PartitionOf(1, kMixOfOne + 1), kMixOfOne);
}

// Routing must be invisible to the data-plane batch size: the whole-chunk
// OnBatch path and the per-tuple OnTuple path are the same function.
TEST(KeyPartitionTest, BatchSizeDoesNotChangeRouting) {
  auto run = [](size_t batch) {
    Topology topo(0, ProvenanceMode::kNone, EngineOptions{.batch_size = batch});
    auto* source =
        topo.Add<VectorSourceNode<KeyedTuple>>("src", RandomKeyed(9, 300, 12));
    auto* partition = topo.Add<KeyPartitionNode<KeyedTuple>>(
        "part",
        [](const KeyedTuple& t) { return static_cast<uint64_t>(t.key); });
    std::vector<Collector> sinks(3);
    topo.Connect(source, partition);
    for (int i = 0; i < 3; ++i) {
      topo.Connect(partition,
                   sinks[i].AttachSink(topo, "s" + std::to_string(i)));
    }
    RunToCompletion(topo);
    std::vector<std::vector<Row>> out(3);
    for (int i = 0; i < 3; ++i) {
      for (const auto& t : sinks[i].tuples()) {
        const auto& k = static_cast<const KeyedTuple&>(*t);
        out[i].push_back(Row{t->ts, k.key, k.value});
        // Every tuple sits exactly where PartitionOf says it must.
        EXPECT_EQ(KeyPartitionNode<KeyedTuple>::PartitionOf(
                      static_cast<uint64_t>(k.key), 3),
                  static_cast<size_t>(i));
      }
    }
    return out;
  };
  const auto reference = run(1);
  size_t total = 0;
  for (const auto& shard : reference) total += shard.size();
  EXPECT_EQ(total, 300u);
  EXPECT_EQ(run(64), reference);
  EXPECT_EQ(run(7), reference);  // ragged chunk boundaries
}

TEST(KeyPartitionTest, EachKeyStaysOnOnePartition) {
  Topology topo;
  auto* source =
      topo.Add<VectorSourceNode<KeyedTuple>>("src", RandomKeyed(9, 300, 12));
  auto* partition = topo.Add<KeyPartitionNode<KeyedTuple>>(
      "part", [](const KeyedTuple& t) { return static_cast<uint64_t>(t.key); });
  Collector c0;
  Collector c1;
  Collector c2;
  auto* s0 = c0.AttachSink(topo, "s0");
  auto* s1 = c1.AttachSink(topo, "s1");
  auto* s2 = c2.AttachSink(topo, "s2");
  topo.Connect(source, partition);
  topo.Connect(partition, s0);
  topo.Connect(partition, s1);
  topo.Connect(partition, s2);
  RunToCompletion(topo);

  std::map<int64_t, int> partition_of;
  size_t total = 0;
  int idx = 0;
  for (const Collector* c : {&c0, &c1, &c2}) {
    for (const auto& t : c->tuples()) {
      const int64_t key = static_cast<const KeyedTuple&>(*t).key;
      auto [it, inserted] = partition_of.emplace(key, idx);
      EXPECT_EQ(it->second, idx) << "key " << key << " crossed partitions";
      ++total;
    }
    ++idx;
  }
  EXPECT_EQ(total, 300u);
  // With 12 keys over 3 partitions, no partition should be empty.
  EXPECT_GT(c0.tuples().size(), 0u);
  EXPECT_GT(c1.tuples().size(), 0u);
  EXPECT_GT(c2.tuples().size(), 0u);
}

TEST(KeyPartitionTest, ForwardsWithoutCopying) {
  Topology topo;
  std::vector<IntrusivePtr<KeyedTuple>> data{MakeTuple<KeyedTuple>(1, 5, 1.0)};
  auto* source = topo.Add<VectorSourceNode<KeyedTuple>>("src", std::move(data));
  auto* partition = topo.Add<KeyPartitionNode<KeyedTuple>>(
      "part", [](const KeyedTuple& t) { return static_cast<uint64_t>(t.key); });
  Collector c;
  auto* sink = c.AttachSink(topo);
  topo.Connect(source, partition);
  topo.Connect(partition, sink);
  RunToCompletion(topo);
  ASSERT_EQ(c.tuples().size(), 1u);
  // Forwarded, not copied: still a SOURCE tuple with no meta.
  EXPECT_EQ(c.tuples()[0]->kind, TupleKind::kSource);
  EXPECT_EQ(c.tuples()[0]->u1(), nullptr);
}

}  // namespace
}  // namespace genealog
