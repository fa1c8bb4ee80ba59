// C3's parallelization claim applied to the provenance pipeline itself: the
// SU is a per-tuple (stateless) operator, so the sink stream can be
// partitioned across N SU instances whose unfolded outputs merge back — the
// provenance records must be exactly those of a single SU.
#include <gtest/gtest.h>

#include <algorithm>

#include "genealog/provenance_sink.h"
#include "genealog/su.h"
#include "spe/aggregate.h"
#include "spe/parallel.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::Collector;
using testing::KeyedTuple;

struct CanonicalRecord {
  int64_t ts;
  std::string derived;
  std::vector<std::string> origins;
  bool operator==(const CanonicalRecord&) const = default;
  auto operator<=>(const CanonicalRecord&) const = default;
};

std::vector<CanonicalRecord> RunWithParallelSu(int su_parallelism) {
  Topology topo(1, ProvenanceMode::kGenealog);
  std::vector<IntrusivePtr<KeyedTuple>> data;
  for (int i = 0; i < 400; ++i) {
    data.push_back(MakeTuple<KeyedTuple>(i, i % 5, 1.0));
  }
  auto* source = topo.Add<VectorSourceNode<KeyedTuple>>("src", std::move(data));
  auto* agg = topo.Add<AggregateNode<KeyedTuple, KeyedTuple>>(
      "agg", AggregateOptions{20, 20},
      [](const KeyedTuple& t) { return t.key; },
      [](const WindowView<KeyedTuple, int64_t>& w) {
        return MakeTuple<KeyedTuple>(0, w.key,
                                     static_cast<double>(w.tuples.size()));
      });
  topo.Connect(source, agg);

  std::vector<CanonicalRecord> records;
  ProvenanceSinkSpec pso;
  pso.consumer = [&records](const ProvenanceRecord& r) {
    CanonicalRecord rec;
    rec.ts = r.derived_ts;
    rec.derived = r.derived->DebugPayload();
    for (const auto& o : r.origins) rec.origins.push_back(o->DebugPayload());
    std::sort(rec.origins.begin(), rec.origins.end());
    records.push_back(std::move(rec));
  };
  auto* prov = topo.Add<ProvenanceSinkNode>("k2", pso);
  auto* sink = topo.Add<SinkNode>("sink");

  if (su_parallelism == 0) {
    auto* su = topo.Add<SuNode>("su");
    topo.Connect(agg, su);
    topo.Connect(su, sink);
    topo.Connect(su, prov);
  } else {
    // Partition the sink stream by key; each partition gets its own SU; the
    // SO streams merge into the sink, the U streams into the provenance sink.
    auto* partition = topo.Add<KeyPartitionNode<KeyedTuple>>(
        "part",
        [](const KeyedTuple& t) { return static_cast<uint64_t>(t.key); });
    auto* so_merge = topo.Add<UnionNode>("so_merge");
    auto* u_merge = topo.Add<UnionNode>("u_merge");
    topo.Connect(agg, partition);
    for (int i = 0; i < su_parallelism; ++i) {
      auto* su = topo.Add<SuNode>("su" + std::to_string(i));
      topo.Connect(partition, su);
      topo.Connect(su, so_merge);
      topo.Connect(su, u_merge);
    }
    topo.Connect(so_merge, sink);
    topo.Connect(u_merge, prov);
  }
  RunToCompletion(topo);
  std::sort(records.begin(), records.end());
  return records;
}

class ParallelSuTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelSuTest, RecordsMatchSingleSu) {
  auto reference = RunWithParallelSu(0);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(RunWithParallelSu(GetParam()), reference);
}

INSTANTIATE_TEST_SUITE_P(Parallelism, ParallelSuTest,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace genealog
