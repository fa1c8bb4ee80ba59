#include "common/memory_accounting.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <latch>
#include <thread>
#include <vector>

#include "core/tuple.h"
#include "testing/test_tuples.h"

namespace genealog::mem {
namespace {

using testing::ValueTuple;

class MemoryAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }
};

TEST_F(MemoryAccountingTest, AddSubTracksLiveBytes) {
  Add(1, 100);
  Add(1, 50);
  EXPECT_EQ(LiveBytes(1), 150);
  Sub(1, 30);
  EXPECT_EQ(LiveBytes(1), 120);
}

TEST_F(MemoryAccountingTest, InstancesAreIndependent) {
  Add(1, 100);
  Add(2, 10);
  EXPECT_EQ(LiveBytes(1), 100);
  EXPECT_EQ(LiveBytes(2), 10);
  EXPECT_EQ(LiveBytes(3), 0);
}

TEST_F(MemoryAccountingTest, PeakHoldsHighWater) {
  Add(1, 100);
  LiveBytes(1);  // the fold that sees the high-water mark
  Sub(1, 90);
  Add(1, 20);
  EXPECT_EQ(LiveBytes(1), 30);
  EXPECT_EQ(PeakBytes(1), 100);
}

// The peak is the highest value a fold has seen: a high-water mark between
// two reads goes unseen.
TEST_F(MemoryAccountingTest, PeakIsTheHighestFold) {
  Add(1, 100);
  Sub(1, 100);
  EXPECT_EQ(PeakBytes(1), 0);
  Add(1, 40);
  EXPECT_EQ(LiveBytes(1), 40);
  Sub(1, 40);
  EXPECT_EQ(PeakBytes(1), 40);
}

TEST_F(MemoryAccountingTest, ThreadLocalInstanceId) {
  SetCurrentInstance(3);
  EXPECT_EQ(CurrentInstance(), 3);
  std::thread other([] {
    EXPECT_EQ(CurrentInstance(), 0);  // fresh thread gets the default pool
    SetCurrentInstance(5);
    EXPECT_EQ(CurrentInstance(), 5);
  });
  other.join();
  EXPECT_EQ(CurrentInstance(), 3);
  SetCurrentInstance(0);
}

TEST_F(MemoryAccountingTest, ConcurrentAddSubIsExact) {
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int j = 0; j < kIters; ++j) {
        Add(1, 8);
        if (j == 0) LiveBytes(1);  // folds while this thread holds 8 bytes
        Sub(1, 8);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(LiveBytes(1), 0);
  EXPECT_GE(PeakBytes(1), 8);
}

// A thread's counts outlive it: its shard moves into the retired total.
TEST_F(MemoryAccountingTest, ExitedThreadStaysInEveryRead) {
  const int64_t base_tuples = LiveTupleCount();
  std::thread([] { Add(2, 100, /*tuples=*/3); }).join();
  EXPECT_EQ(LiveBytes(2), 100);
  EXPECT_EQ(PeakBytes(2), 100);
  EXPECT_EQ(LiveTupleCount() - base_tuples, 3);
  Sub(2, 100, /*tuples=*/3);
  EXPECT_EQ(LiveBytes(2), 0);
  EXPECT_EQ(LiveTupleCount(), base_tuples);
}

TEST_F(MemoryAccountingTest, ResetZeroesRunningAndExitedShards) {
  std::latch counted(1);
  std::latch reset(1);
  std::thread running([&] {
    Add(1, 50);
    counted.count_down();
    reset.wait();
    Add(1, 5);
  });
  std::thread([] { Add(1, 70); }).join();
  counted.wait();
  EXPECT_EQ(LiveBytes(1), 120);
  ResetAll();
  EXPECT_EQ(LiveBytes(1), 0);
  EXPECT_EQ(PeakBytes(1), 0);
  reset.count_down();
  running.join();
  EXPECT_EQ(LiveBytes(1), 5);
}

// Four threads allocate and four others release: each release subtracts on
// the releasing thread's shard, so only the fold comes back to the bases.
TEST_F(MemoryAccountingTest, CrossThreadTuplesFoldBackToTheBases) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  const int64_t base_tuples = LiveTupleCount();
  const int64_t base_bytes = LiveBytes(3);
  std::vector<std::vector<TuplePtr>> made(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([w, &made] {
      SetCurrentInstance(3);
      for (int i = 0; i < kPerThread; ++i) {
        made[static_cast<size_t>(w)].push_back(MakeTuple<ValueTuple>(i, w));
      }
    });
  }
  for (auto& t : threads) t.join();
  threads.clear();
  EXPECT_EQ(LiveTupleCount() - base_tuples, kThreads * kPerThread);
  EXPECT_GT(LiveBytes(3), base_bytes);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([w, &made] { made[static_cast<size_t>(w)].clear(); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(LiveTupleCount(), base_tuples);
  EXPECT_EQ(LiveBytes(3), base_bytes);
}

// Releases a tuple from a static destructor, after the main thread's
// thread-locals (its shard's retirement among them) are gone, and exits 0
// only if the release was counted.
struct ReleaseAtExit {
  TuplePtr tuple;
  int64_t base_tuples;
  int64_t base_bytes;
  ~ReleaseAtExit() {
    tuple.reset();
    const bool counted =
        LiveTupleCount() == base_tuples && LiveBytes(5) == base_bytes;
    std::_Exit(counted ? 0 : 1);
  }
};

void ExitHoldingATuple() {
  SetCurrentInstance(5);
  const int64_t base_tuples = LiveTupleCount();
  const int64_t base_bytes = LiveBytes(5);
  static ReleaseAtExit holder{MakeTuple<ValueTuple>(1, 1), base_tuples,
                              base_bytes};
  std::exit(2);
}

TEST(MemoryAccountingDeathTest, ReleaseInStaticDestructorIsCounted) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(ExitHoldingATuple(), ::testing::ExitedWithCode(0), "");
}

TEST_F(MemoryAccountingTest, RssIsPositive) {
  EXPECT_GT(ReadRssBytes(), 0);
}

TEST_F(MemoryAccountingTest, SamplerProducesSeries) {
  Add(1, 1000);
  MemorySampler sampler(/*n_instances=*/2, /*period_ms=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.Stop();
  const auto series = sampler.series(1);
  EXPECT_GT(series.samples, 0);
  EXPECT_EQ(series.max_bytes, 1000);
  EXPECT_DOUBLE_EQ(series.avg_bytes, 1000.0);
  const auto total = sampler.total();
  EXPECT_EQ(total.max_bytes, 1000);
}

}  // namespace
}  // namespace genealog::mem
