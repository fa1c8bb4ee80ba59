// Fine-grained provenance correctness for Q1–Q4 (intra-process):
//  * GeneaLog's records contain exactly the contributing source tuples
//    (checked against the workloads' reference semantics);
//  * the per-sink-tuple contribution-graph sizes match §7 (4 for Q1, 8 for
//    Q2, 192 for Q3 with the paper's parameters, 24+1 for Q4);
//  * GL and BL — two entirely different mechanisms — produce identical
//    provenance records.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "queries/query_helpers.h"

namespace genealog::queries {
namespace {

lr::LinearRoadConfig LrConfig() {
  lr::LinearRoadConfig config;
  config.n_cars = 40;
  config.duration_s = 2400;
  config.stop_probability = 0.02;
  config.accident_probability = 0.08;
  config.seed = 5;
  return config;
}

sg::SmartGridConfig PaperScaleSgConfig() {
  sg::SmartGridConfig config;
  config.n_meters = 20;
  config.n_days = 6;
  config.blackout_probability = 0.5;
  config.forced_blackout_days = {1, 3};
  config.blackout_meters = 8;  // exactly the paper's 8 meters -> 192 tuples
  config.anomaly_probability = 0.0;
  config.seed = 29;
  return config;
}

QueryBuildOptions Gl() {
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  return options;
}

QueryBuildOptions Bl() {
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kBaseline;
  return options;
}

TEST(Q1ProvenanceTest, RecordsContainExactlyTheFourZeroSpeedReports) {
  auto data = lr::GenerateLinearRoad(LrConfig());
  auto run = RunQuery(BuildQ1Fluent, data, Gl());
  ASSERT_FALSE(run.records.empty());

  // Index the workload's zero-speed reports by (car, ts).
  std::map<std::pair<int64_t, int64_t>, const lr::PositionReport*> zeros;
  for (const auto& r : data.reports) {
    if (r->speed == 0.0) zeros[{r->car_id, r->ts}] = r.get();
  }

  for (const CanonicalRecord& record : run.records) {
    ASSERT_EQ(record.origins.size(), 4u) << record.derived_payload;
    for (const auto& [ts, payload] : record.origins) {
      // Each origin is a zero-speed report inside the sink tuple's window.
      EXPECT_GE(ts, record.derived_ts);
      EXPECT_LT(ts, record.derived_ts + kQ1WindowSize);
      EXPECT_NE(payload.find("speed=0.0"), std::string::npos) << payload;
    }
  }
}

TEST(Q2ProvenanceTest, AccidentRecordsHoldAllInvolvedCarsReports) {
  auto data = lr::GenerateLinearRoad(LrConfig());
  auto run = RunQuery(BuildQ2Fluent, data, Gl());
  ASSERT_FALSE(run.records.empty());
  for (const CanonicalRecord& record : run.records) {
    // >= 2 cars x 4 reports; count from the payload: "pos=<p> count=<n>".
    const size_t cars =
        std::stoul(record.derived_payload.substr(
            record.derived_payload.rfind('=') + 1));
    EXPECT_GE(cars, 2u);
    EXPECT_EQ(record.origins.size(), 4 * cars) << record.derived_payload;
  }
}

TEST(Q3ProvenanceTest, BlackoutRecordsHold192SourceReadings) {
  auto data = sg::GenerateSmartGrid(PaperScaleSgConfig());
  auto run = RunQuery(BuildQ3Fluent, data, Gl());
  ASSERT_FALSE(run.records.empty()) << "no blackouts planted";
  for (const CanonicalRecord& record : run.records) {
    // 8 meters x 24 hourly readings = 192 (§7's average).
    EXPECT_EQ(record.origins.size(), 192u);
    // Every origin is a zero reading from the alert's day.
    for (const auto& [ts, payload] : record.origins) {
      EXPECT_GE(ts, record.derived_ts - kDayHours);
      EXPECT_LT(ts, record.derived_ts);
      EXPECT_NE(payload.find("cons=0.0"), std::string::npos) << payload;
    }
  }
}

TEST(Q4ProvenanceTest, AnomalyRecordsHoldDayReadingsPlusMidnight) {
  auto config = PaperScaleSgConfig();
  config.anomaly_probability = 0.05;
  config.blackout_probability = 0.0;
  auto data = sg::GenerateSmartGrid(config);
  auto run = RunQuery(BuildQ4Fluent, data, Gl());
  ASSERT_FALSE(run.records.empty()) << "no anomalies planted";
  for (const CanonicalRecord& record : run.records) {
    // 24 readings of the summed day + the midnight reading (paper: 24; the
    // +1 is the boundary-inclusion choice documented in EXPERIMENTS.md).
    EXPECT_EQ(record.origins.size(), 25u);
    // Exactly one origin is the midnight reading at the alert timestamp.
    int midnights = 0;
    for (const auto& [ts, payload] : record.origins) {
      if (ts == record.derived_ts) ++midnights;
    }
    EXPECT_EQ(midnights, 1);
  }
}

TEST(ProvenanceEquivalenceTest, GlAndBlProduceIdenticalRecords) {
  auto lr_data = lr::GenerateLinearRoad(LrConfig());
  auto sg_data = sg::GenerateSmartGrid(PaperScaleSgConfig());
  auto sg_anomaly = [] {
    auto config = PaperScaleSgConfig();
    config.anomaly_probability = 0.05;
    return sg::GenerateSmartGrid(config);
  }();

  auto Check = [](auto builder, const auto& data, const char* name) {
    auto gl = RunQuery(builder, data, Gl());
    auto bl = RunQuery(builder, data, Bl());
    ASSERT_FALSE(gl.records.empty()) << name;
    EXPECT_EQ(gl.records, bl.records) << name;
  };
  Check(BuildQ1Fluent, lr_data, "Q1");
  Check(BuildQ2Fluent, lr_data, "Q2");
  Check(BuildQ3Fluent, sg_data, "Q3");
  Check(BuildQ4Fluent, sg_anomaly, "Q4");
}

TEST(ProvenanceEquivalenceTest, ProvenanceIsDeterministicAcrossRuns) {
  auto data = sg::GenerateSmartGrid(PaperScaleSgConfig());
  auto first = RunQuery(BuildQ3Fluent, data, Gl());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(RunQuery(BuildQ3Fluent, data, Gl()).records, first.records);
  }
}

}  // namespace
}  // namespace genealog::queries
