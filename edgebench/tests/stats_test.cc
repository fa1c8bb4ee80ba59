// Unit tests for the benchmark's reporting rules: percentile selection,
// quartiles (pinned to Python's statistics.quantiles), source lag, span
// self time, and the oracle comparison.
#include <gtest/gtest.h>

#include <thread>

#include "cases.h"
#include "stats.h"
#include "trace.h"

namespace edgebench {
namespace {

TEST(PercentileRuleTest, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(19, 50));
  EXPECT_TRUE(PercentileSupported(10000, 99.9));
  EXPECT_FALSE(PercentileSupported(9999, 99.9));
  EXPECT_FALSE(PercentileSupported(0, 50));
}

TEST(PercentileRuleTest, HighestSupportedClimbsTheLadder) {
  EXPECT_FALSE(HighestSupportedPercentile(0).has_value());
  EXPECT_FALSE(HighestSupportedPercentile(19).has_value());
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileRuleTest, InterpolatedOrAbsent) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  // genealog::Percentile interpolates at rank pct * (n - 1): 989.01 for p99
  // and 499.5 for p50.
  EXPECT_NEAR(*Percentile(samples, 99), 990.01, 1e-9);
  EXPECT_NEAR(*Percentile(samples, 50), 500.5, 1e-9);
  samples.pop_back();  // 999 samples: p99 has only 9 beyond it
  EXPECT_FALSE(Percentile(samples, 99).has_value());
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // Reference values: statistics.quantiles(values, n=4).
  auto q = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ((*q)[0], 2.75);
  EXPECT_DOUBLE_EQ((*q)[1], 5.5);
  EXPECT_DOUBLE_EQ((*q)[2], 8.25);
  q = Quartiles({1, 2});
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ((*q)[0], 0.75);
  EXPECT_DOUBLE_EQ((*q)[1], 1.5);
  EXPECT_DOUBLE_EQ((*q)[2], 2.25);
  q = Quartiles({5, 1, 4, 2, 3});
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ((*q)[0], 1.5);
  EXPECT_DOUBLE_EQ((*q)[1], 3.0);
  EXPECT_DOUBLE_EQ((*q)[2], 4.5);
  EXPECT_FALSE(Quartiles({1}).has_value());
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(Median({}).has_value());
}

TEST(SourceLagTest, BehindScheduleInMilliseconds) {
  // 1 s into a 1000 t/s schedule, 900 emitted: 100 tuples = 100 ms behind.
  EXPECT_DOUBLE_EQ(SourceLagMs(1'000'000'000, 900, 1000), 100);
  EXPECT_DOUBLE_EQ(SourceLagMs(1'000'000'000, 1000, 1000), 0);
  EXPECT_DOUBLE_EQ(SourceLagMs(1'000'000'000, 1200, 1000), 0);  // ahead
  EXPECT_DOUBLE_EQ(SourceLagMs(500'000'000, 0, 1'000'000), 500);
  EXPECT_DOUBLE_EQ(SourceLagMs(1'000'000'000, 0, 0), 0);  // unpaced
}

TEST(TraceTest, CoveredNsMergesAndClips) {
  EXPECT_EQ(CoveredNs({{0, 10}, {5, 15}, {20, 30}}, 0, 25), 20);
  EXPECT_EQ(CoveredNs({{-5, 3}}, 0, 10), 3);
  EXPECT_EQ(CoveredNs({}, 0, 10), 0);
}

TEST(TraceTest, SelfTimeExcludesChildren) {
  Tracer tracer(true);
  {
    auto outer = tracer.Open("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      auto inner = tracer.Open("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // A span on another thread, parented explicitly.
    std::thread([&tracer, parent = outer.index()] {
      auto helper = tracer.Open("helper", parent);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }).join();
  }
  const auto self = tracer.SelfMs();
  ASSERT_EQ(self.size(), 3u);
  EXPECT_GE(self.at("inner"), 5.0);
  EXPECT_GE(self.at("outer"), 2.0);
  EXPECT_LT(self.at("outer"), 5.0 + 2.0);
  EXPECT_GE(self.at("helper"), 1.0);

  Tracer off(false);
  { auto s = off.Open("x"); }
  EXPECT_EQ(off.size(), 0u);
}

// A capture that replays the oracle exactly.
Capture PerfectCapture(const QueryCase& c, int laps) {
  Capture cap;
  for (int lap = 0; lap < laps; ++lap) {
    for (size_t e = 0; e < c.expected_sinks().size(); ++e) {
      Row sink = c.expected_sinks()[e];
      sink.ts += lap * c.lap_shift();
      cap.sinks.push_back(sink);
      RecordRow rec;
      rec.derived = sink;
      rec.origins_begin = static_cast<uint32_t>(cap.origins.size());
      for (Row o : c.expected_origins()[e]) {
        o.ts += lap * c.lap_shift();
        cap.origins.push_back(o);
      }
      rec.origins_end = static_cast<uint32_t>(cap.origins.size());
      cap.records.push_back(rec);
    }
  }
  return cap;
}

TEST(OracleTest, CountsEveryMismatch) {
  const LinearRoadCase lr(3, 0.02);
  ASSERT_GT(lr.expected_sinks().size(), 2u);
  const size_t n = lr.expected_sinks().size();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  lr.Check(PerfectCapture(lr, 2), 2, true, attempted, failed);
  EXPECT_EQ(attempted, 4 * n);
  EXPECT_EQ(failed, 0u);

  Capture wrong_origin = PerfectCapture(lr, 2);
  wrong_origin.origins.front().x += 1;  // a speed the source never had
  failed = 0;
  lr.Check(wrong_origin, 2, true, attempted, failed);
  EXPECT_EQ(failed, 1u);

  Capture missing = PerfectCapture(lr, 2);
  missing.sinks.pop_back();
  missing.records.pop_back();
  failed = 0;
  lr.Check(missing, 2, true, attempted, failed);
  EXPECT_EQ(failed, 2u);  // one sink tuple, one record

  failed = 0;
  lr.Check(missing, 2, false, attempted, failed);
  EXPECT_EQ(failed, 1u);  // sink stream only

  const SmartGridCase sg(3, 0.02);
  ASSERT_GT(sg.expected_sinks().size(), 0u);
  for (const auto& origins : sg.expected_origins()) {
    EXPECT_EQ(origins.size(), 25u);  // one day of readings + the midnight
  }
  failed = 0;
  sg.Check(PerfectCapture(sg, 3), 3, true, attempted, failed);
  EXPECT_EQ(failed, 0u);
}

}  // namespace
}  // namespace edgebench
