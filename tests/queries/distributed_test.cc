// Inter-process provenance (§6): the 3-instance deployments must produce
// exactly the sink outputs and provenance records of the intra-process runs,
// over fully serializing channels (in-memory and TCP loopback).
#include <gtest/gtest.h>

#include "genealog/pull.h"
#include "genealog/su.h"
#include "queries/query_helpers.h"

namespace genealog::queries {
namespace {

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
