// Inter-process provenance (§6): the 3-instance deployments must produce
// exactly the sink outputs and provenance records of the intra-process runs,
// over fully serializing channels (in-memory and TCP loopback), and a record
// must reach the provenance consumer as soon as the watermark passes it,
// intra and distributed.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>

#include "genealog/pull.h"
#include "genealog/su.h"
#include "queries/query_helpers.h"
#include "testing/test_tuples.h"

namespace genealog::queries {
namespace {

using namespace std::chrono_literals;
using genealog::testing::V;
using genealog::testing::ValueTuple;

lr::LinearRoadConfig LrConfig() {
  lr::LinearRoadConfig config;
  config.n_cars = 30;
  config.duration_s = 1800;
  config.stop_probability = 0.03;
  config.accident_probability = 0.1;
  config.seed = 3;
  return config;
}

sg::SmartGridConfig SgConfig() {
  sg::SmartGridConfig config;
  config.n_meters = 16;
  config.n_days = 6;
  config.blackout_probability = 0.5;
  config.forced_blackout_days = {2};
  config.blackout_meters = 8;
  config.anomaly_probability = 0.04;
  config.seed = 41;
  return config;
}

QueryBuildOptions Intra(ProvenanceMode mode) {
  QueryBuildOptions options;
  options.mode = mode;
  return options;
}

QueryBuildOptions Dist(ProvenanceMode mode, bool tcp = false) {
  QueryBuildOptions options;
  options.mode = mode;
  options.distributed = true;
  options.use_tcp = tcp;
  return options;
}

TEST(DistributedNpTest, SinkOutputsEqualIntra) {
  auto lr_data = lr::GenerateLinearRoad(LrConfig());
  auto sg_data = sg::GenerateSmartGrid(SgConfig());
  auto Check = [](auto builder, const auto& data, const char* name) {
    auto intra = RunQuery(builder, data, Intra(ProvenanceMode::kNone));
    auto dist = RunQuery(builder, data, Dist(ProvenanceMode::kNone));
    ASSERT_FALSE(intra.sink_tuples.empty()) << name;
    EXPECT_EQ(intra.sink_tuples, dist.sink_tuples) << name;
  };
  Check(BuildQ1Fluent, lr_data, "Q1");
  Check(BuildQ2Fluent, lr_data, "Q2");
  Check(BuildQ3Fluent, sg_data, "Q3");
  Check(BuildQ4Fluent, sg_data, "Q4");
}

TEST(DistributedGlTest, ProvenanceEqualsIntraProvenance) {
  auto lr_data = lr::GenerateLinearRoad(LrConfig());
  auto sg_data = sg::GenerateSmartGrid(SgConfig());
  auto Check = [](auto builder, const auto& data, const char* name) {
    auto intra = RunQuery(builder, data, Intra(ProvenanceMode::kGenealog));
    auto dist = RunQuery(builder, data, Dist(ProvenanceMode::kGenealog));
    ASSERT_FALSE(intra.records.empty()) << name;
    EXPECT_EQ(intra.records, dist.records) << name;
    EXPECT_EQ(intra.sink_tuples, dist.sink_tuples) << name;
  };
  Check(BuildQ1Fluent, lr_data, "Q1");
  Check(BuildQ2Fluent, lr_data, "Q2");
  Check(BuildQ3Fluent, sg_data, "Q3");
  Check(BuildQ4Fluent, sg_data, "Q4");
}

TEST(DistributedBlTest, ProvenanceEqualsIntraProvenance) {
  auto lr_data = lr::GenerateLinearRoad(LrConfig());
  auto sg_data = sg::GenerateSmartGrid(SgConfig());
  auto Check = [](auto builder, const auto& data, const char* name) {
    auto intra = RunQuery(builder, data, Intra(ProvenanceMode::kBaseline));
    auto dist = RunQuery(builder, data, Dist(ProvenanceMode::kBaseline));
    ASSERT_FALSE(intra.records.empty()) << name;
    EXPECT_EQ(intra.records, dist.records) << name;
  };
  Check(BuildQ1Fluent, lr_data, "Q1");
  Check(BuildQ2Fluent, lr_data, "Q2");
  Check(BuildQ3Fluent, sg_data, "Q3");
  Check(BuildQ4Fluent, sg_data, "Q4");
}

TEST(DistributedGlTest, GlAndBlAgreeAcrossProcesses) {
  auto sg_data = sg::GenerateSmartGrid(SgConfig());
  auto gl = RunQuery(BuildQ3Fluent, sg_data, Dist(ProvenanceMode::kGenealog));
  auto bl = RunQuery(BuildQ3Fluent, sg_data, Dist(ProvenanceMode::kBaseline));
  ASSERT_FALSE(gl.records.empty());
  EXPECT_EQ(gl.records, bl.records);
}

TEST(DistributedGlTest, TcpTransportEqualsInMemoryTransport) {
  auto lr_data = lr::GenerateLinearRoad(LrConfig());
  auto inmem =
      RunQuery(BuildQ1Fluent, lr_data, Dist(ProvenanceMode::kGenealog));
  auto tcp = RunQuery(BuildQ1Fluent, lr_data,
                      Dist(ProvenanceMode::kGenealog, /*tcp=*/true));
  ASSERT_FALSE(inmem.records.empty());
  EXPECT_EQ(inmem.records, tcp.records);
  EXPECT_EQ(inmem.sink_tuples, tcp.sink_tuples);
}

TEST(DistributedGlTest, NetworkCarriesOnlyProvenanceNotSourceStream) {
  // §6/§7: GeneaLog ships provenance data, BL additionally ships the whole
  // source stream to the provenance node. With realistic (sparse) alert
  // rates the source stream dominates and BL's traffic is a multiple of
  // GL's.
  lr::LinearRoadConfig config;
  config.n_cars = 60;
  config.duration_s = 3600;
  config.stop_probability = 0.004;
  config.accident_probability = 0.01;
  config.seed = 9;
  auto lr_data = lr::GenerateLinearRoad(config);
  BuiltDataflow gl_q = BuildQ1Fluent(lr_data, Dist(ProvenanceMode::kGenealog));
  gl_q.Run();
  BuiltDataflow bl_q = BuildQ1Fluent(lr_data, Dist(ProvenanceMode::kBaseline));
  bl_q.Run();
  EXPECT_LT(gl_q.network_bytes(), bl_q.network_bytes());
}

// The pull-based U streams (genealog/pull.h): the SU before each crossing
// retains its delivering tuples and counts what became of each. Q4's daily
// sums cross on data0 and the midnight readings (Multiplex copies, so not
// SOURCE tuples) on data1, one per meter-day each; every alert asks for
// exactly its own daily sum and its own midnight reading, and the rest are
// evicted unrequested.
TEST(DistributedGlTest, CrossingSusCountRetainedRequestedAndEvicted) {
  sg::SmartGridConfig config = SgConfig();
  config.anomaly_probability = 0.15;
  const sg::SmartGridData data = sg::GenerateSmartGrid(config);
  for (const bool tcp : {false, true}) {
    uint64_t records = 0;
    QueryBuildOptions options = Dist(ProvenanceMode::kGenealog, tcp);
    options.provenance_consumer = [&records](const ProvenanceRecord&) {
      ++records;
    };
    BuiltDataflow q4 = BuildQ4Fluent(data, std::move(options));
    q4.Run();
    ASSERT_EQ(q4.su_nodes.size(), 3u);
    const SuNode* sink_su = q4.su_nodes[0];
    const SuNode* daily = q4.su_nodes[1];
    const SuNode* midnight = q4.su_nodes[2];
    EXPECT_EQ(sink_su->name(), "SU.sink");
    EXPECT_EQ(sink_su->retention(), nullptr);
    ASSERT_GT(records, 5u);
    const uint64_t meter_days =
        static_cast<uint64_t>(config.n_meters) * config.n_days;
    for (const SuNode* su : {daily, midnight}) {
      ASSERT_NE(su->retention(), nullptr) << su->name();
      const RetentionIndex& index = *su->retention();
      EXPECT_EQ(index.requested(), records) << su->name() << " tcp " << tcp;
      EXPECT_GT(index.evicted_unrequested(), 0u) << su->name();
      EXPECT_EQ(index.retained(),
                index.requested() + index.evicted_unrequested())
          << su->name();
      EXPECT_LE(index.retained(), meter_days) << su->name();
      EXPECT_EQ(su->traversal_count(), index.requested()) << su->name();
    }
    EXPECT_EQ(daily->name(), "SU.send0");
    EXPECT_EQ(midnight->name(), "SU.send1");
    ASSERT_NE(midnight->retention(), nullptr);
    EXPECT_EQ(midnight->retention()->retained(), meter_days);
    EXPECT_EQ(q4.u_servers.size(), 2u);
    EXPECT_NE(q4.u_demand, nullptr);
  }
}

// A provenance record is whole once the unfolded stream's watermark passes
// it, so it must reach the consumer without waiting for further input.
// Readings 0, 1, 2, ... are summed over tumbling 4-tick windows, and those
// sums over tumbling 10-tick windows into the alerts; distributed, the cut
// falls between the two windows, so the plan's total window span (14)
// exceeds the MU's join window (10). The source pauses at the watermark
// where the first alert's record is whole: an aggregate forwards its input
// watermark less its window, plus one (spe/aggregate.h), so the alert for
// [0, 10) fires once the source's watermark reaches 4 + 10 - 1, and the
// intra SU's U stream passes it there; distributed, the MU holds its
// watermark a further 10 (its window) behind. While the source waits, the
// record must reach the consumer; then the run ends normally.
struct PausedRun {
  bool record_while_paused = false;
  std::vector<int64_t> first_origin_ts;
  size_t records = 0;
};

PausedRun RunWithPausingSource(bool distributed, SchedulerMode scheduler,
                               size_t batch_size) {
  constexpr int64_t kInner = 4;   // instance 1's window
  constexpr int64_t kOuter = 10;  // the sink side's window (the MU's ws)
  constexpr int64_t kTicks = 60;
  const int64_t pause_after =
      kInner + kOuter - 1 + (distributed ? kOuter : 0);

  std::mutex mu;
  std::condition_variable cv;
  PausedRun run;
  bool first_record = false;
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kGenealog;
  opts.batch_size = batch_size;
  opts.scheduler = scheduler;
  // The paused source holds a shared worker; the others keep running.
  if (scheduler == SchedulerMode::kPool) opts.workers = 3;
  opts.provenance_consumer = [&](const ProvenanceRecord& r) {
    std::lock_guard lock(mu);
    ++run.records;
    if (r.derived_ts != 0) return;
    for (const TuplePtr& o : r.origins) run.first_origin_ts.push_back(o->ts);
    std::sort(run.first_origin_ts.begin(), run.first_origin_ts.end());
    first_record = true;
    cv.notify_all();
  };
  Dataflow df(std::move(opts));
  int64_t next = 0;
  const auto sum = [](const WindowView<ValueTuple, int64_t>& w) {
    int64_t total = 0;
    for (const auto& t : w.tuples) total += t->value;
    return MakeTuple<ValueTuple>(0, total);
  };
  const auto one_key = [](const ValueTuple&) { return int64_t{0}; };
  Stream<ValueTuple> inner =
      df.Source<ValueTuple>(
            "readings",
            [&]() -> IntrusivePtr<ValueTuple> {
              if (next == kTicks) return nullptr;
              if (next == pause_after + 1) {
                std::unique_lock lock(mu);
                run.record_while_paused =
                    cv.wait_for(lock, 20s, [&] { return first_record; });
              }
              const int64_t ts = next++;
              return V(ts, ts);
            })
          .Aggregate<ValueTuple>("inner", {kInner, kInner}, one_key, sum);
  if (distributed) inner = inner.At(2);
  inner.Aggregate<ValueTuple>("outer", {kOuter, kOuter}, one_key, sum)
      .Sink("alerts");
  BuiltDataflow flow = df.Build();
  flow.Run();
  return run;
}

TEST(DistributedGlTest, RecordReachesConsumerOnceTheWatermarkPassesIt) {
  for (const bool distributed : {false, true}) {
    for (const SchedulerMode scheduler :
         {SchedulerMode::kThreadPerNode, SchedulerMode::kPool}) {
      for (const size_t batch : {size_t{1}, size_t{64}}) {
        const PausedRun run =
            RunWithPausingSource(distributed, scheduler, batch);
        const std::string where =
            std::string(distributed ? "distributed" : "intra") + " pool " +
            std::to_string(scheduler == SchedulerMode::kPool) + " batch " +
            std::to_string(batch);
        EXPECT_TRUE(run.record_while_paused) << where;
        // The alert for [0, 10) sums the 4-tick windows at 0, 4 and 8.
        std::vector<int64_t> whole(12);
        std::iota(whole.begin(), whole.end(), 0);
        EXPECT_EQ(run.first_origin_ts, whole) << where;
        EXPECT_EQ(run.records, 6u) << where;  // 60 ticks, 10 per alert
      }
    }
  }
}

TEST(DistributedTest, InstanceCountsMatchDeployment) {
  auto lr_data = lr::GenerateLinearRoad(LrConfig());
  BuiltDataflow np = BuildQ1Fluent(lr_data, Dist(ProvenanceMode::kNone));
  EXPECT_EQ(np.n_instances, 2);
  EXPECT_EQ(np.topologies.size(), 2u);
  BuiltDataflow gl = BuildQ1Fluent(lr_data, Dist(ProvenanceMode::kGenealog));
  EXPECT_EQ(gl.n_instances, 3);
  EXPECT_EQ(gl.topologies.size(), 3u);
  EXPECT_EQ(gl.su_nodes.size(), 2u);  // one per delivering stream (Q1)
  BuiltDataflow q4 = BuildQ4Fluent(sg::GenerateSmartGrid(SgConfig()),
                                   Dist(ProvenanceMode::kGenealog));
  EXPECT_EQ(q4.su_nodes.size(), 3u);  // two sends + one sink-side SU
}

}  // namespace
}  // namespace genealog::queries
