#include "genealog/su.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "genealog/provenance_sink.h"
#include "spe/aggregate.h"
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

// Runs source -> aggregate(sum, tumbling 10) -> SU -> {SO sink, U sink}.
struct SuRun {
  Collector so;
  Collector u;
  double mean_traversal_ms = 0;
  double mean_graph_size = 0;
};

SuRun RunWithSu(std::vector<IntrusivePtr<ValueTuple>> input, bool composed) {
  SuRun run;
  Topology topo(1, ProvenanceMode::kGenealog);
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", std::move(input));
  auto* agg = topo.Add<AggregateNode<ValueTuple, ValueTuple>>(
      "agg", AggregateOptions{10, 10},
      [](const ValueTuple&) { return int64_t{0}; },
      [](const WindowView<ValueTuple, int64_t>& w) {
        int64_t sum = 0;
        for (const auto& t : w.tuples) sum += t->value;
        return MakeTuple<ValueTuple>(0, sum);
      });
  auto* so_sink = run.so.AttachSink(topo, "so");
  auto* u_sink = run.u.AttachSink(topo, "u");
  topo.Connect(source, agg);
  if (composed) {
    ComposedSu su = BuildComposedSu(topo, "su");
    topo.Connect(agg, su.entry);
    topo.Connect(su.so_node, so_sink);
    topo.Connect(su.u_node, u_sink);
    RunToCompletion(topo);
  } else {
    auto* su = topo.Add<SuNode>("su");
    topo.Connect(agg, su);
    topo.Connect(su, so_sink);
    topo.Connect(su, u_sink);
    RunToCompletion(topo);
    run.mean_traversal_ms = su->mean_traversal_ms();
    run.mean_graph_size = su->mean_graph_size();
  }
  return run;
}

TEST(SuNodeTest, SoIsExactCopyOfInputStream) {
  auto run = RunWithSu(Values({{1, 1}, {2, 2}, {11, 4}}), /*composed=*/false);
  ASSERT_EQ(run.so.tuples().size(), 2u);  // two windows
  EXPECT_EQ(run.so.at<ValueTuple>(0).value, 3);
  EXPECT_EQ(run.so.at<ValueTuple>(1).value, 4);
}

TEST(SuNodeTest, UnfoldsEachDerivedTupleToItsOrigins) {
  auto run = RunWithSu(Values({{1, 1}, {2, 2}, {11, 4}}), /*composed=*/false);
  ASSERT_EQ(run.u.tuples().size(), 3u);  // 2 + 1 originating tuples

  // First window's unfolded pair: derived sum=3, origins values {1,2}.
  const auto& u0 = static_cast<const UnfoldedTuple&>(*run.u.tuples()[0]);
  const auto& u1 = static_cast<const UnfoldedTuple&>(*run.u.tuples()[1]);
  EXPECT_EQ(static_cast<const ValueTuple&>(*u0.derived).value, 3);
  EXPECT_EQ(u0.derived_id, u1.derived_id);
  std::vector<int64_t> origin_values{
      static_cast<const ValueTuple&>(*u0.origin).value,
      static_cast<const ValueTuple&>(*u1.origin).value};
  std::sort(origin_values.begin(), origin_values.end());
  EXPECT_EQ(origin_values, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(u0.origin_kind, TupleKind::kSource);
  EXPECT_EQ(u0.origin_ts, u0.origin->ts);
  EXPECT_EQ(u0.origin_id, u0.origin->id);
}

TEST(SuNodeTest, UnfoldedStreamIsTimestampSorted) {
  auto run = RunWithSu(
      Values({{1, 1}, {2, 2}, {11, 4}, {15, 5}, {21, 6}}), false);
  const auto ts = run.u.Timestamps();
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
}

TEST(SuNodeTest, RecordsTraversalMetrics) {
  auto run = RunWithSu(Values({{1, 1}, {2, 2}, {11, 4}}), false);
  EXPECT_GT(run.mean_graph_size, 0);
  EXPECT_GE(run.mean_traversal_ms, 0);
  EXPECT_LT(run.mean_traversal_ms, 100.0);
}

TEST(SuNodeTest, SourceTupleUnfoldsToItself) {
  // SU directly on the source stream: every tuple is its own provenance.
  Topology topo(1, ProvenanceMode::kGenealog);
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>(
      "src", Values({{1, 1}, {2, 2}}));
  auto* su = topo.Add<SuNode>("su");
  Collector so;
  Collector u;
  auto* so_sink = so.AttachSink(topo, "so");
  auto* u_sink = u.AttachSink(topo, "u");
  topo.Connect(source, su);
  topo.Connect(su, so_sink);
  topo.Connect(su, u_sink);
  RunToCompletion(topo);

  ASSERT_EQ(u.tuples().size(), 2u);
  const auto& u0 = static_cast<const UnfoldedTuple&>(*u.tuples()[0]);
  EXPECT_EQ(u0.derived.get(), u0.origin.get());
  EXPECT_EQ(u0.derived_id, u0.origin_id);
}

struct RecordKey {
  int64_t derived_ts;
  int64_t derived_value;
  std::vector<int64_t> origin_values;
  bool operator==(const RecordKey&) const = default;
  auto operator<=>(const RecordKey&) const = default;
};

std::vector<RecordKey> CanonicalRecords(const Collector& u_tuples) {
  std::map<uint64_t, RecordKey> by_id;
  for (const auto& t : u_tuples.tuples()) {
    const auto& u = static_cast<const UnfoldedTuple&>(*t);
    auto& r = by_id[u.derived_id];
    r.derived_ts = u.derived_ts;
    r.derived_value = static_cast<const ValueTuple&>(*u.derived).value;
    r.origin_values.push_back(
        static_cast<const ValueTuple&>(*u.origin).value);
  }
  std::vector<RecordKey> out;
  for (auto& [id, r] : by_id) {
    std::sort(r.origin_values.begin(), r.origin_values.end());
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ComposedSuTest, EquivalentToFusedSu) {
  auto fused =
      RunWithSu(Values({{1, 1}, {2, 2}, {11, 4}, {15, 5}, {21, 6}}), false);
  auto composed =
      RunWithSu(Values({{1, 1}, {2, 2}, {11, 4}, {15, 5}, {21, 6}}), true);

  // SO streams carry the same payloads in the same order.
  ASSERT_EQ(fused.so.tuples().size(), composed.so.tuples().size());
  for (size_t i = 0; i < fused.so.tuples().size(); ++i) {
    EXPECT_EQ(fused.so.at<ValueTuple>(i).value,
              composed.so.at<ValueTuple>(i).value);
    EXPECT_EQ(fused.so.tuples()[i]->ts, composed.so.tuples()[i]->ts);
  }
  // U streams carry the same provenance records.
  EXPECT_EQ(CanonicalRecords(fused.u), CanonicalRecords(composed.u));
}

TEST(ComposedSuTest, ComposedCarriesDeliveringIdsOnUnfoldedStream) {
  // The Multiplex copies preserve ids, so the unfolded stream's derived_id
  // matches the id seen by the SO consumer — required for MU joins (§6).
  auto composed = RunWithSu(Values({{1, 1}, {11, 2}}), true);
  ASSERT_EQ(composed.so.tuples().size(), 2u);
  ASSERT_EQ(composed.u.tuples().size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const auto& u = static_cast<const UnfoldedTuple&>(*composed.u.tuples()[i]);
    EXPECT_EQ(u.derived_id, composed.so.tuples()[i]->id);
  }
}

TEST(ProvenanceSinkTest, GroupsUnfoldedStreamIntoRecords) {
  Topology topo(1, ProvenanceMode::kGenealog);
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>(
      "src", Values({{1, 1}, {2, 2}, {11, 4}}));
  auto* agg = topo.Add<AggregateNode<ValueTuple, ValueTuple>>(
      "agg", AggregateOptions{10, 10},
      [](const ValueTuple&) { return int64_t{0}; },
      [](const WindowView<ValueTuple, int64_t>& w) {
        int64_t sum = 0;
        for (const auto& t : w.tuples) sum += t->value;
        return MakeTuple<ValueTuple>(0, sum);
      });
  auto* su = topo.Add<SuNode>("su");
  auto* so_sink = topo.Add<SinkNode>("so");
  std::vector<ProvenanceRecord> records;
  ProvenanceSinkSpec pso;
  pso.consumer = [&records](const ProvenanceRecord& r) {
    records.push_back(r);
  };
  auto* k2 = topo.Add<ProvenanceSinkNode>("k2", pso);
  topo.Connect(source, agg);
  topo.Connect(agg, su);
  topo.Connect(su, so_sink);
  topo.Connect(su, k2);
  RunToCompletion(topo);

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].origins.size(), 2u);
  EXPECT_EQ(records[1].origins.size(), 1u);
  EXPECT_EQ(k2->records(), 2u);
  EXPECT_EQ(k2->origin_tuples(), 3u);
  EXPECT_DOUBLE_EQ(k2->output().mean_origins_per_record(), 1.5);
  EXPECT_GT(k2->bytes_written(), 0u);
}

TEST(ProvenanceSinkTest, WritesRecordsToDisk) {
  const std::string path = ::testing::TempDir() + "/prov_sink_test.bin";
  {
    Topology topo(1, ProvenanceMode::kGenealog);
    auto* source =
        topo.Add<VectorSourceNode<ValueTuple>>("src", Values({{1, 1}}));
    auto* su = topo.Add<SuNode>("su");
    auto* so_sink = topo.Add<SinkNode>("so");
    ProvenanceSinkSpec pso;
    pso.file_path = path;
    auto* k2 = topo.Add<ProvenanceSinkNode>("k2", pso);
    topo.Connect(source, su);
    topo.Connect(su, so_sink);
    topo.Connect(su, k2);
    RunToCompletion(topo);
    EXPECT_GT(k2->bytes_written(), 0u);
  }
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 0);
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace genealog
