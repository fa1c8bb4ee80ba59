// Q1–Q4 output correctness: the queries' sink tuples must match independent
// brute-force reference detectors over the same generated data.
#include <gtest/gtest.h>

#include <set>

#include "queries/query_helpers.h"

namespace genealog::queries {
namespace {

lr::LinearRoadConfig LrConfig() {
  lr::LinearRoadConfig config;
  config.n_cars = 50;
  config.duration_s = 2400;
  config.stop_probability = 0.02;
  config.accident_probability = 0.08;
  config.seed = 11;
  return config;
}

sg::SmartGridConfig SgConfig() {
  sg::SmartGridConfig config;
  config.n_meters = 25;
  config.n_days = 8;
  config.blackout_probability = 0.4;
  config.forced_blackout_days = {1, 4};
  config.blackout_meters = 9;
  config.anomaly_probability = 0.03;
  config.seed = 23;
  return config;
}

TEST(Q1CorrectnessTest, SinkTuplesMatchReferenceDetector) {
  auto data = lr::GenerateLinearRoad(LrConfig());
  auto reference =
      lr::ReferenceStoppedCars(data.reports, kQ1WindowSize, kQ1WindowAdvance,
                               kQ1StopCount);
  ASSERT_FALSE(reference.empty()) << "workload must plant stopped cars";

  auto run = RunQuery(BuildQ1Fluent, data, {});
  ASSERT_EQ(run.sink_tuples.size(), reference.size());
  std::vector<CanonicalSinkTuple> expected;
  for (const auto& e : reference) {
    expected.push_back(
        {e.window_start, "car=" + std::to_string(e.car_id) + " count=4" +
                             " dist_pos=1 last_pos=" + std::to_string(e.pos)});
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(run.sink_tuples, expected);
}

TEST(Q2CorrectnessTest, SinkTuplesMatchReferenceDetector) {
  auto data = lr::GenerateLinearRoad(LrConfig());
  auto stopped = lr::ReferenceStoppedCars(data.reports, kQ1WindowSize,
                                          kQ1WindowAdvance, kQ1StopCount);
  auto reference = lr::ReferenceAccidents(stopped);
  ASSERT_FALSE(reference.empty()) << "workload must plant accidents";

  auto run = RunQuery(BuildQ2Fluent, data, {});
  std::vector<CanonicalSinkTuple> expected;
  for (const auto& e : reference) {
    expected.push_back(
        {e.window_start, "pos=" + std::to_string(e.pos) +
                             " count=" + std::to_string(e.car_count)});
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(run.sink_tuples, expected);
}

TEST(Q3CorrectnessTest, SinkTuplesMatchReferenceDetector) {
  auto data = sg::GenerateSmartGrid(SgConfig());
  auto reference = sg::ReferenceBlackouts(data.readings, kQ3ZeroMeterThreshold);
  ASSERT_FALSE(reference.empty()) << "workload must plant blackouts";

  auto run = RunQuery(BuildQ3Fluent, data, {});
  std::vector<CanonicalSinkTuple> expected;
  for (const auto& e : reference) {
    // The daily sums of day d are emitted at ts = 24(d+1); the counting
    // window starting there is the alert's timestamp.
    expected.push_back({(e.day + 1) * kDayHours,
                        "count=" + std::to_string(e.meter_count)});
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(run.sink_tuples, expected);
}

TEST(Q4CorrectnessTest, SinkTuplesMatchReferenceDetector) {
  auto data = sg::GenerateSmartGrid(SgConfig());
  auto reference = sg::ReferenceAnomalies(data.readings, kQ4DiffThreshold);
  ASSERT_FALSE(reference.empty()) << "workload must plant anomalies";

  auto run = RunQuery(BuildQ4Fluent, data, {});
  std::vector<CanonicalSinkTuple> expected;
  for (const auto& e : reference) {
    expected.push_back({(e.day + 1) * kDayHours,
                        "meter=" + std::to_string(e.meter_id) +
                            " cons_diff=" + std::to_string(e.diff)});
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(run.sink_tuples, expected);
}

TEST(QueryCorrectnessTest, AllModesProduceIdenticalSinkOutputs) {
  // Provenance capture must never change the query's results: NP, GL and BL
  // produce the same sink stream.
  auto lr_data = lr::GenerateLinearRoad(LrConfig());
  auto sg_data = sg::GenerateSmartGrid(SgConfig());

  auto Check = [](auto builder, const auto& data, const char* name) {
    QueryBuildOptions np;
    np.mode = ProvenanceMode::kNone;
    QueryBuildOptions gl;
    gl.mode = ProvenanceMode::kGenealog;
    QueryBuildOptions bl;
    bl.mode = ProvenanceMode::kBaseline;
    auto np_run = RunQuery(builder, data, np);
    auto gl_run = RunQuery(builder, data, gl);
    auto bl_run = RunQuery(builder, data, bl);
    EXPECT_EQ(np_run.sink_tuples, gl_run.sink_tuples) << name << " GL";
    EXPECT_EQ(np_run.sink_tuples, bl_run.sink_tuples) << name << " BL";
    EXPECT_FALSE(np_run.sink_tuples.empty()) << name;
  };
  Check(BuildQ1Fluent, lr_data, "Q1");
  Check(BuildQ2Fluent, lr_data, "Q2");
  Check(BuildQ3Fluent, sg_data, "Q3");
  Check(BuildQ4Fluent, sg_data, "Q4");
}

TEST(QueryCorrectnessTest, RunsAreDeterministic) {
  auto data = lr::GenerateLinearRoad(LrConfig());
  auto first = RunQuery(BuildQ2Fluent, data, {});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(RunQuery(BuildQ2Fluent, data, {}).sink_tuples, first.sink_tuples);
  }
}

}  // namespace
}  // namespace genealog::queries
