// GENEALOG_* knob parsing: every knob kind accepts exactly the spellings it
// documents, keeps its default when unset or empty, and rejects anything
// else with an std::invalid_argument naming the knob and the bad value.
#include "common/env_knob.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/engine_options.h"

namespace genealog {
namespace {

// Runs `parse` and returns the std::invalid_argument message it threw
// (empty when it did not throw).
template <typename Fn>
std::string RejectionOf(Fn&& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(EnvKnobTest, BoolKnobAcceptsZeroAndOne) {
  EXPECT_FALSE(ParseBoolKnob("GENEALOG_LINEAGE_STORE", "0", true));
  EXPECT_TRUE(ParseBoolKnob("GENEALOG_LINEAGE_STORE", "1", false));
}

TEST(EnvKnobTest, BoolKnobUnsetOrEmptyKeepsDefault) {
  EXPECT_TRUE(ParseBoolKnob("GENEALOG_LINEAGE_STORE", nullptr, true));
  EXPECT_FALSE(ParseBoolKnob("GENEALOG_LINEAGE_STORE", nullptr, false));
  EXPECT_TRUE(ParseBoolKnob("GENEALOG_LINEAGE_STORE", "", true));
  EXPECT_FALSE(ParseBoolKnob("GENEALOG_LINEAGE_STORE", "", false));
}

TEST(EnvKnobTest, BoolKnobRejectsOtherSpellings) {
  for (const char* bad : {"yes", "true", "on", "2", "-1", " 1", "1 ", "01"}) {
    SCOPED_TRACE(bad);
    const std::string message = RejectionOf(
        [bad] { return ParseBoolKnob("GENEALOG_LINEAGE_STORE", bad, true); });
    EXPECT_NE(message.find("GENEALOG_LINEAGE_STORE"), std::string::npos)
        << message;
    EXPECT_NE(message.find(std::string("\"") + bad + "\""), std::string::npos)
        << message;
  }
}

TEST(EnvKnobTest, CountKnobAcceptsNonNegativeIntegers) {
  EXPECT_EQ(ParseCountKnob("GENEALOG_BATCH_SIZE", "0", 64), 0);
  EXPECT_EQ(ParseCountKnob("GENEALOG_BATCH_SIZE", "1", 64), 1);
  EXPECT_EQ(ParseCountKnob("GENEALOG_BATCH_SIZE", "4096", 64), 4096);
  EXPECT_EQ(ParseCountKnob("GENEALOG_LINEAGE_RETAIN_SPAN",
                           "9223372036854775807", 0),
            INT64_MAX);
  EXPECT_EQ(ParseCountKnob("GENEALOG_WORKERS", nullptr, 3), 3);
  EXPECT_EQ(ParseCountKnob("GENEALOG_WORKERS", "", 3), 3);
}

TEST(EnvKnobTest, CountKnobRejectsMalformedValues) {
  for (const char* bad : {"abc", "-1", "+4", "4k", "1.5", " 8", "8 ",
                          "9223372036854775808"}) {
    SCOPED_TRACE(bad);
    const std::string message = RejectionOf(
        [bad] { return ParseCountKnob("GENEALOG_BATCH_SIZE", bad, 64); });
    EXPECT_NE(message.find("GENEALOG_BATCH_SIZE"), std::string::npos)
        << message;
    EXPECT_NE(message.find(std::string("\"") + bad + "\""), std::string::npos)
        << message;
  }
}

TEST(EnvKnobTest, RealKnobAcceptsNonNegativeNumbers) {
  EXPECT_DOUBLE_EQ(ParseRealKnob("GENEALOG_BENCH_SCALE", "0.5", 1.0), 0.5);
  EXPECT_DOUBLE_EQ(ParseRealKnob("GENEALOG_BENCH_SCALE", "2", 1.0), 2.0);
  EXPECT_DOUBLE_EQ(ParseRealKnob("GENEALOG_BENCH_SCALE", "0", 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ParseRealKnob("--rate", "1e3", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(ParseRealKnob("--rate", ".25", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(ParseRealKnob("GENEALOG_BENCH_SCALE", nullptr, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ParseRealKnob("GENEALOG_BENCH_SCALE", "", 0.3), 0.3);
}

TEST(EnvKnobTest, RealKnobRejectsMalformedValues) {
  for (const char* bad : {"abc", "-1", "-0", "+2", "0.5x", "1,5", " 1", "1 ",
                          "inf", "nan", "1e999", "."}) {
    SCOPED_TRACE(bad);
    const std::string message = RejectionOf(
        [bad] { return ParseRealKnob("GENEALOG_BENCH_SCALE", bad, 1.0); });
    EXPECT_NE(message.find("GENEALOG_BENCH_SCALE"), std::string::npos)
        << message;
    EXPECT_NE(message.find(std::string("\"") + bad + "\""), std::string::npos)
        << message;
  }
}

TEST(EnvKnobTest, SchedulerKnobAcceptsBothModes) {
  EXPECT_EQ(ParseSchedulerKnob("GENEALOG_SCHEDULER", "pool",
                               SchedulerMode::kThreadPerNode),
            SchedulerMode::kPool);
  EXPECT_EQ(ParseSchedulerKnob("GENEALOG_SCHEDULER", "thread-per-node",
                               SchedulerMode::kPool),
            SchedulerMode::kThreadPerNode);
  EXPECT_EQ(ParseSchedulerKnob("GENEALOG_SCHEDULER", nullptr,
                               SchedulerMode::kThreadPerNode),
            SchedulerMode::kThreadPerNode);
  EXPECT_EQ(
      ParseSchedulerKnob("GENEALOG_SCHEDULER", "", SchedulerMode::kPool),
      SchedulerMode::kPool);
}

TEST(EnvKnobTest, SchedulerKnobRejectsTypos) {
  for (const char* bad : {"poool", "Pool", "threads", "1"}) {
    SCOPED_TRACE(bad);
    const std::string message = RejectionOf([bad] {
      return ParseSchedulerKnob("GENEALOG_SCHEDULER", bad,
                                SchedulerMode::kThreadPerNode);
    });
    EXPECT_NE(message.find("GENEALOG_SCHEDULER"), std::string::npos)
        << message;
    EXPECT_NE(message.find(bad), std::string::npos) << message;
  }
}

TEST(EnvKnobTest, WireCodecKnobAcceptsBothCodecs) {
  EXPECT_EQ(ParseWireCodecKnob("GENEALOG_WIRE_CODEC", "raw",
                               WireCodec::kCompact),
            WireCodec::kRaw);
  EXPECT_EQ(ParseWireCodecKnob("GENEALOG_WIRE_CODEC", "compact",
                               WireCodec::kRaw),
            WireCodec::kCompact);
  EXPECT_EQ(ParseWireCodecKnob("GENEALOG_WIRE_CODEC", nullptr,
                               WireCodec::kCompact),
            WireCodec::kCompact);
  EXPECT_EQ(ParseWireCodecKnob("GENEALOG_WIRE_CODEC", "", WireCodec::kRaw),
            WireCodec::kRaw);
}

TEST(EnvKnobTest, WireCodecKnobRejectsTypos) {
  for (const char* bad : {"compakt", "RAW", "lz", "0"}) {
    SCOPED_TRACE(bad);
    const std::string message = RejectionOf([bad] {
      return ParseWireCodecKnob("GENEALOG_WIRE_CODEC", bad,
                                WireCodec::kCompact);
    });
    EXPECT_NE(message.find("GENEALOG_WIRE_CODEC"), std::string::npos)
        << message;
    EXPECT_NE(message.find(bad), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace genealog
