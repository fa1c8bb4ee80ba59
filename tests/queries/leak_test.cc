// Whole-query memory hygiene: after a BuiltDataflow (any query, any mode, any
// deployment) is run and destroyed, every tuple it allocated must have been
// reclaimed — the system-level version of the C2 reachability argument.
#include <gtest/gtest.h>

#include "common/memory_accounting.h"
#include "queries/query_helpers.h"

namespace genealog::queries {
namespace {

lr::LinearRoadConfig LrConfig() {
  lr::LinearRoadConfig config;
  config.n_cars = 25;
  config.duration_s = 1500;
  config.stop_probability = 0.03;
  config.accident_probability = 0.1;
  config.seed = 77;
  return config;
}

sg::SmartGridConfig SgConfig() {
  sg::SmartGridConfig config;
  config.n_meters = 12;
  config.n_days = 5;
  config.forced_blackout_days = {1};
  config.blackout_meters = 8;
  config.anomaly_probability = 0.05;
  config.seed = 78;
  return config;
}

class QueryLeakTest
    : public ::testing::TestWithParam<std::tuple<int, ProvenanceMode, bool>> {};

TEST_P(QueryLeakTest, NoTuplesSurviveTheQuery) {
  const auto [query_index, mode, distributed] = GetParam();
  const auto lr_data = lr::GenerateLinearRoad(LrConfig());
  const auto sg_data = sg::GenerateSmartGrid(SgConfig());
  const int64_t data_tuples = mem::LiveTupleCount();

  {
    QueryBuildOptions options;
    options.mode = mode;
    options.distributed = distributed;
    BuiltDataflow q = [&] {
      switch (query_index) {
        case 1:
          return BuildQ1Fluent(lr_data, std::move(options));
        case 2:
          return BuildQ2Fluent(lr_data, std::move(options));
        case 3:
          return BuildQ3Fluent(sg_data, std::move(options));
        default:
          return BuildQ4Fluent(sg_data, std::move(options));
      }
    }();
    q.Run();
    EXPECT_GT(q.sink()->count(), 0u);
  }
  // Only the generated datasets remain.
  EXPECT_EQ(mem::LiveTupleCount(), data_tuples);
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<int, ProvenanceMode, bool>>&
        info) {
  const auto [query_index, mode, distributed] = info.param;
  return "Q" + std::to_string(query_index) + ToString(mode) +
         (distributed ? "Dist" : "Intra");
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, QueryLeakTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(ProvenanceMode::kNone,
                                         ProvenanceMode::kGenealog,
                                         ProvenanceMode::kBaseline),
                       ::testing::Bool()),
    ParamName);

}  // namespace
}  // namespace genealog::queries
