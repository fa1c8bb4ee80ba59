// §3 frames the discussion for a single query and notes it "is nonetheless
// trivial to extend ... to scenarios in which more queries are defined".
// This test deploys two queries over one source (split by a Multiplex) in a
// single SPE instance, each with its own SU and provenance sink, and checks
// that the two provenance pipelines are correct and fully isolated — under
// the thread-per-node scheduler AND the worker pool (the multi-query
// scenario the pool exists for), with byte-identical provenance between the
// two.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "genealog/provenance_sink.h"
#include "genealog/su.h"
#include "lr/linear_road.h"
#include "queries/queries.h"
#include "spe/aggregate.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/harness.h"

namespace genealog {
namespace {

using lr::PositionReport;
using lr::StoppedCarStats;

struct TwoQueryRun {
  std::vector<ProvenanceRecord> a_records;
  std::vector<ProvenanceRecord> b_records;
  size_t a_sink_count = 0;
  size_t b_sink_count = 0;
};

std::vector<std::string> Canonical(const std::vector<ProvenanceRecord>& recs) {
  std::vector<std::string> out;
  for (const auto& r : recs) {
    std::string line =
        std::to_string(r.derived_ts) + "|" + r.derived->DebugPayload() + "|";
    std::vector<std::string> origins;
    for (const auto& o : r.origins) {
      origins.push_back(std::to_string(o->ts) + "/" + o->DebugPayload());
    }
    std::sort(origins.begin(), origins.end());
    for (const auto& o : origins) line += o + ";";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TwoQueryRun RunTwoQueries(const lr::LinearRoadData& data, SchedulerMode mode,
                          size_t workers) {
  TwoQueryRun run;
  Topology topo(1, ProvenanceMode::kGenealog,
                EngineOptions{.scheduler = mode, .workers = workers});
  auto* source =
      topo.Add<VectorSourceNode<PositionReport>>("source", data.reports);
  auto* split = topo.Add<MultiplexNode>("split");
  topo.Connect(source, split);

  // Query A: the broken-down-car query (Q1).
  auto* a_filter = topo.Add<FilterNode<PositionReport>>(
      "a.speed0", [](const PositionReport& t) { return t.speed == 0.0; });
  auto* a_agg = topo.Add<AggregateNode<PositionReport, StoppedCarStats>>(
      "a.agg", AggregateOptions{120, 30},
      [](const PositionReport& t) { return t.car_id; },
      [](const WindowView<PositionReport, int64_t>& w) {
        std::set<int64_t> positions;
        for (const auto& t : w.tuples) positions.insert(t->pos);
        return MakeTuple<StoppedCarStats>(
            0, w.key, static_cast<int64_t>(w.tuples.size()),
            static_cast<int64_t>(positions.size()), w.tuples.back()->pos);
      });
  auto* a_stopped = topo.Add<FilterNode<StoppedCarStats>>(
      "a.stopped", [](const StoppedCarStats& t) {
        return t.count == 4 && t.dist_pos == 1;
      });
  auto* a_su = topo.Add<SuNode>("a.su");
  auto* a_sink = topo.Add<SinkNode>("a.sink");
  ProvenanceSinkSpec a_pso;
  a_pso.finalize_slack = 120;
  a_pso.consumer = [&run](const ProvenanceRecord& r) {
    run.a_records.push_back(r);
  };
  auto* a_prov = topo.Add<ProvenanceSinkNode>("a.k2", a_pso);
  topo.Connect(split, a_filter);
  topo.Connect(a_filter, a_agg);
  topo.Connect(a_agg, a_stopped);
  topo.Connect(a_stopped, a_su);
  topo.Connect(a_su, a_sink);
  topo.Connect(a_su, a_prov);

  // Query B: per-car tumbling count of *fast* reports (speed > 30), an
  // entirely different analysis over the same source.
  auto* b_filter = topo.Add<FilterNode<PositionReport>>(
      "b.fast", [](const PositionReport& t) { return t.speed > 30.0; });
  auto* b_agg = topo.Add<AggregateNode<PositionReport, StoppedCarStats>>(
      "b.agg", AggregateOptions{300, 300},
      [](const PositionReport& t) { return t.car_id; },
      [](const WindowView<PositionReport, int64_t>& w) {
        return MakeTuple<StoppedCarStats>(
            0, w.key, static_cast<int64_t>(w.tuples.size()), 1,
            w.tuples.back()->pos);
      });
  auto* b_su = topo.Add<SuNode>("b.su");
  auto* b_sink = topo.Add<SinkNode>("b.sink");
  ProvenanceSinkSpec b_pso;
  b_pso.finalize_slack = 300;
  b_pso.consumer = [&run](const ProvenanceRecord& r) {
    run.b_records.push_back(r);
  };
  auto* b_prov = topo.Add<ProvenanceSinkNode>("b.k2", b_pso);
  topo.Connect(split, b_filter);
  topo.Connect(b_filter, b_agg);
  topo.Connect(b_agg, b_su);
  topo.Connect(b_su, b_sink);
  topo.Connect(b_su, b_prov);

  RunToCompletion(topo);
  run.a_sink_count = a_sink->count();
  run.b_sink_count = b_sink->count();
  return run;
}

lr::LinearRoadData TestData() {
  lr::LinearRoadConfig config;
  config.n_cars = 20;
  config.duration_s = 1200;
  config.stop_probability = 0.03;
  config.seed = 13;
  return lr::GenerateLinearRoad(config);
}

void CheckIsolation(const TwoQueryRun& run) {
  // Query A's provenance: zero-speed reports only, 4 per record.
  ASSERT_FALSE(run.a_records.empty());
  for (const auto& record : run.a_records) {
    EXPECT_EQ(record.origins.size(), 4u);
    for (const auto& origin : record.origins) {
      EXPECT_EQ(static_cast<const PositionReport&>(*origin).speed, 0.0);
    }
  }
  // Query B's provenance: fast reports only.
  ASSERT_FALSE(run.b_records.empty());
  for (const auto& record : run.b_records) {
    EXPECT_FALSE(record.origins.empty());
    for (const auto& origin : record.origins) {
      EXPECT_GT(static_cast<const PositionReport&>(*origin).speed, 30.0);
    }
  }
  EXPECT_EQ(run.a_sink_count, run.a_records.size());
  EXPECT_EQ(run.b_sink_count, run.b_records.size());
}

TEST(MultiQueryTest, TwoQueriesShareOneSourceWithIsolatedProvenance) {
  const auto data = TestData();
  CheckIsolation(RunTwoQueries(data, SchedulerMode::kThreadPerNode, 0));
}

// The same two-query deployment on the worker pool, swept across worker
// counts (1 = fully serialized). The provenance of both queries must be
// byte-identical to the thread-per-node run: the scheduler is pure
// mechanism, invisible in every record.
TEST(MultiQueryTest, SchedulerChoiceIsInvisibleInProvenance) {
  const auto data = TestData();
  const TwoQueryRun reference =
      RunTwoQueries(data, SchedulerMode::kThreadPerNode, 0);
  CheckIsolation(reference);
  const auto ref_a = Canonical(reference.a_records);
  const auto ref_b = Canonical(reference.b_records);
  for (size_t workers : {1u, 2u, 4u}) {
    const TwoQueryRun pool =
        RunTwoQueries(data, SchedulerMode::kPool, workers);
    CheckIsolation(pool);
    EXPECT_EQ(Canonical(pool.a_records), ref_a) << "workers " << workers;
    EXPECT_EQ(Canonical(pool.b_records), ref_b) << "workers " << workers;
  }
}

// The repository benchmark's fleet: several Q1 dataflows built with
// `engine().scheduler = kPool`, their topologies run through one Runner.
// The Runner reads the scheduler from the topologies' EngineOptions alone,
// so the fleet shares one pool whatever GENEALOG_SCHEDULER says, and every
// query's output matches a lone thread-per-node run.
TEST(MultiQueryTest, FleetBuiltForThePoolRunsOnOneRunnersPool) {
  const auto data = TestData();
  queries::QueryBuildOptions lone;
  lone.mode = ProvenanceMode::kGenealog;
  lone.engine().scheduler = SchedulerMode::kThreadPerNode;
  BuiltDataflow reference = queries::BuildQ1Fluent(data, std::move(lone));
  reference.Run();
  ASSERT_GT(reference.sink()->count(), 0u);

  std::vector<BuiltDataflow> fleet;
  for (int q = 0; q < 3; ++q) {
    queries::QueryBuildOptions o;
    o.mode = ProvenanceMode::kGenealog;
    o.engine().scheduler = SchedulerMode::kPool;
    fleet.push_back(queries::BuildQ1Fluent(data, std::move(o)));
  }
  std::vector<Topology*> topologies;
  for (BuiltDataflow& flow : fleet) {
    for (auto& topology : flow.topologies) topologies.push_back(topology.get());
  }
  Runner runner(topologies);
  runner.Start();
  runner.Join();
  EXPECT_EQ(runner.scheduler(), SchedulerMode::kPool);
  EXPECT_NE(runner.pool(), nullptr);
  for (const BuiltDataflow& flow : fleet) {
    EXPECT_EQ(flow.sink()->count(), reference.sink()->count());
    EXPECT_EQ(flow.provenance_records(), reference.provenance_records());
  }
}

}  // namespace
}  // namespace genealog
