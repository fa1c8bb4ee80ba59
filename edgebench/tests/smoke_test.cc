// Small-seed smoke run of every workload, untraced and traced: each must
// finish with error_rate == 0 and produce every metric of its set.
#include <gtest/gtest.h>

#include <filesystem>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace edgebench {
namespace {

RunOptions SmokeOptions(const std::string& workload, bool trace) {
  RunOptions o;
  o.workload = workload;
  o.seed = 11;
  o.seconds = 0.2;
  o.trace = trace;
  o.scale = 0.05;
  o.scratch_dir = "edgebench-smoke-scratch";
  std::filesystem::create_directories(o.scratch_dir);
  return o;
}

class WorkloadSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmokeTest, UntracedRunIsCorrect) {
  Tracer tracer(false);
  const WorkloadResult r = RunWorkload(SmokeOptions(GetParam(), false), tracer);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_TRUE(r.metrics.count("error_rate"));
  EXPECT_EQ(r.metrics.at("error_rate"), 0.0);
  for (const MetricSpec& m : EndToEndMetrics()) {
    ASSERT_TRUE(r.metrics.count(m.name)) << m.name;
    EXPECT_GT(r.metrics.at(m.name), 0.0) << m.name;
  }
}

TEST_P(WorkloadSmokeTest, TracedRunPrintsEveryLayer) {
  Tracer tracer(true);
  const WorkloadResult r = RunWorkload(SmokeOptions(GetParam(), true), tracer);
  EXPECT_EQ(r.failed, 0u);
  for (const MetricSpec& m : PerLayerMetrics()) {
    EXPECT_TRUE(r.metrics.count(m.name)) << m.name;
  }
  EXPECT_GT(tracer.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmokeTest,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(WorkloadSmokeTest, UnknownWorkloadIsRejected) {
  Tracer tracer(false);
  EXPECT_THROW(RunWorkload(SmokeOptions("nope", false), tracer),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgebench
