// The tuple pool must be invisible in the data: with the pool on or off
// (GENEALOG_TUPLE_POOL), at any batch size, the engine must produce
// byte-identical sink output sequences and identical provenance traversals —
// recycling storage can change only where tuples live, never what they say.
// Sweeps pool {off, on} × batch {1, 64} over full Q1 GL runs (intra-process
// and distributed) and checks the per-tuple live-byte accounting is
// pool-invariant too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/memory_accounting.h"
#include "common/tuple_pool.h"
#include "lr/linear_road.h"
#include "queries/queries.h"
#include "queries/query_helpers.h"

namespace genealog {
namespace {

using queries::QueryBuildOptions;
using queries::QueryRunResult;

class PoolDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { was_enabled_ = pool::Enabled(); }
  void TearDown() override {
    pool::FlushThreadCache();
    pool::SetEnabled(was_enabled_);
  }

 private:
  bool was_enabled_ = true;
};

lr::LinearRoadData SmallLr() {
  lr::LinearRoadConfig config;
  config.n_cars = 40;
  config.duration_s = 2400;
  config.stop_probability = 0.02;
  config.seed = 5;
  return lr::GenerateLinearRoad(config);
}

struct Q1Run {
  std::vector<std::string> ordered_sink;  // emission order, byte-identical
  QueryRunResult canonical;               // records, canonically sorted
};

Q1Run RunQ1(const lr::LinearRoadData& data, size_t batch_size, bool pool_on,
            bool distributed) {
  pool::SetEnabled(pool_on);
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

TEST_F(PoolDeterminismTest, Q1OutputAndProvenanceArePoolInvariant) {
  const lr::LinearRoadData data = SmallLr();
  for (size_t batch_size : {size_t{1}, size_t{64}}) {
    const Q1Run off = RunQ1(data, batch_size, /*pool_on=*/false,
                            /*distributed=*/false);
    ASSERT_FALSE(off.ordered_sink.empty());
    ASSERT_FALSE(off.canonical.records.empty());
    const Q1Run on = RunQ1(data, batch_size, /*pool_on=*/true,
                           /*distributed=*/false);
    EXPECT_EQ(on.ordered_sink, off.ordered_sink) << "batch " << batch_size;
    EXPECT_EQ(on.canonical.records, off.canonical.records)
        << "batch " << batch_size;
  }
}

TEST_F(PoolDeterminismTest, Q1DistributedIsPoolInvariant) {
  const lr::LinearRoadData data = SmallLr();
  for (size_t batch_size : {size_t{1}, size_t{64}}) {
    const Q1Run off = RunQ1(data, batch_size, /*pool_on=*/false,
                            /*distributed=*/true);
    ASSERT_FALSE(off.ordered_sink.empty());
    ASSERT_FALSE(off.canonical.records.empty());
    const Q1Run on = RunQ1(data, batch_size, /*pool_on=*/true,
                           /*distributed=*/true);
    EXPECT_EQ(on.ordered_sink, off.ordered_sink) << "batch " << batch_size;
    EXPECT_EQ(on.canonical.records, off.canonical.records)
        << "batch " << batch_size;
  }
}

TEST_F(PoolDeterminismTest, LiveTupleAccountingIsPoolInvariantAndLeakFree) {
  // The pool recycles storage without touching per-tuple accounting: after a
  // full run everything must be released either way, and recycling must
  // actually have happened in the pooled run.
  const lr::LinearRoadData data = SmallLr();
  const int64_t live_before = mem::LiveTupleCount();

  RunQ1(data, 64, /*pool_on=*/false, /*distributed=*/false);
  EXPECT_EQ(mem::LiveTupleCount(), live_before);

  pool::ResetStats();
  RunQ1(data, 64, /*pool_on=*/true, /*distributed=*/false);
  EXPECT_EQ(mem::LiveTupleCount(), live_before);
  const pool::Stats s = pool::GetStats();
  EXPECT_GT(s.pool_allocs, 0u);
  EXPECT_GT(s.recycled_allocs, 0u);
  EXPECT_GT(s.recycle_hit_rate(), 0.5);
}

}  // namespace
}  // namespace genealog
