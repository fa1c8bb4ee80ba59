// CountPhysicalCores against mocked sysfs layouts: an SMT box must resolve to
// physical cores, not hardware threads, only the listed CPUs count, and
// broken layouts must fall back. DefaultWorkerCount against this thread's
// own affinity mask.
#include "common/cpu_topology.h"

#include <gtest/gtest.h>

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace genealog {
namespace {

namespace fs = std::filesystem;

class MockSysfs {
 public:
  MockSysfs() {
    root_ = fs::temp_directory_path() /
            ("genealog_cpu_topology_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  ~MockSysfs() { fs::remove_all(root_); }

  void AddCpu(int cpu, long package, long core) {
    const fs::path topo = root_ / ("cpu" + std::to_string(cpu)) / "topology";
    fs::create_directories(topo);
    Write(topo / "physical_package_id", std::to_string(package) + "\n");
    Write(topo / "core_id", std::to_string(core) + "\n");
  }

  void WriteRaw(int cpu, const std::string& file, const std::string& text) {
    const fs::path topo = root_ / ("cpu" + std::to_string(cpu)) / "topology";
    fs::create_directories(topo);
    Write(topo / file, text);
  }

  std::string path() const { return root_.string(); }

 private:
  static void Write(const fs::path& p, const std::string& text) {
    std::ofstream(p) << text;
  }

  fs::path root_;
  static inline int counter_ = 0;
};

std::vector<int> Cpus(int n) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < n; ++cpu) cpus.push_back(cpu);
  return cpus;
}

TEST(CpuTopologyTest, SmtBoxCountsPhysicalCoresNotThreads) {
  // 2 sockets x 4 cores x 2 SMT threads = 16 logical CPUs, 8 physical cores.
  // Linux numbers the sibling threads after all the primaries.
  MockSysfs sysfs;
  int cpu = 0;
  for (int smt = 0; smt < 2; ++smt) {
    for (int pkg = 0; pkg < 2; ++pkg) {
      for (int core = 0; core < 4; ++core) {
        sysfs.AddCpu(cpu++, pkg, core);
      }
    }
  }
  EXPECT_EQ(CountPhysicalCores(Cpus(16), sysfs.path()), 8u);
}

TEST(CpuTopologyTest, MaskOfOneCoresSiblingThreadsCountsOne) {
  // 1 socket x 2 cores x 2 SMT threads; cpu0 and cpu2 are the two threads
  // of core 0. A process pinned to them owns one physical core.
  MockSysfs sysfs;
  sysfs.AddCpu(0, 0, 0);
  sysfs.AddCpu(1, 0, 1);
  sysfs.AddCpu(2, 0, 0);
  sysfs.AddCpu(3, 0, 1);
  EXPECT_EQ(CountPhysicalCores({0, 2}, sysfs.path()), 1u);
  EXPECT_EQ(CountPhysicalCores(Cpus(4), sysfs.path()), 2u);
}

TEST(CpuTopologyTest, NonSmtBoxCountsEveryCpu) {
  MockSysfs sysfs;
  for (int cpu = 0; cpu < 6; ++cpu) sysfs.AddCpu(cpu, 0, cpu);
  EXPECT_EQ(CountPhysicalCores(Cpus(6), sysfs.path()), 6u);
}

TEST(CpuTopologyTest, CoreIdsOnlyUniquePerPackage) {
  // core_id restarts at 0 on each package; the pair (package, core) is the
  // physical core identity.
  MockSysfs sysfs;
  sysfs.AddCpu(0, 0, 0);
  sysfs.AddCpu(1, 0, 1);
  sysfs.AddCpu(2, 1, 0);
  sysfs.AddCpu(3, 1, 1);
  EXPECT_EQ(CountPhysicalCores(Cpus(4), sysfs.path()), 4u);
}

TEST(CpuTopologyTest, MissingLayoutYieldsZeroForFallback) {
  MockSysfs sysfs;  // no cpu* directories at all
  EXPECT_EQ(CountPhysicalCores({0}, sysfs.path()), 0u);
  EXPECT_EQ(CountPhysicalCores({0}, sysfs.path() + "/does_not_exist"), 0u);
  EXPECT_EQ(CountPhysicalCores({}, sysfs.path()), 0u);
}

TEST(CpuTopologyTest, GapInCpuNumberingDoesNotEndTheWalk) {
  // cpu1 is offline (absent from the layout and from the mask): cpu2 still
  // counts.
  MockSysfs sysfs;
  sysfs.AddCpu(0, 0, 0);
  sysfs.AddCpu(2, 0, 2);
  EXPECT_EQ(CountPhysicalCores({0, 2}, sysfs.path()), 2u);
}

TEST(CpuTopologyTest, UnparsableTopologyFileYieldsZeroForFallback) {
  MockSysfs sysfs;
  sysfs.AddCpu(0, 0, 0);
  sysfs.AddCpu(1, 0, 1);
  sysfs.WriteRaw(2, "physical_package_id", "not-a-number");
  sysfs.WriteRaw(2, "core_id", "0\n");
  EXPECT_EQ(CountPhysicalCores(Cpus(3), sysfs.path()), 0u);
  EXPECT_EQ(CountPhysicalCores(Cpus(2), sysfs.path()), 2u);
}

TEST(CpuTopologyTest, DefaultWorkerCountIsPositive) {
  EXPECT_GE(DefaultWorkerCount(), 1u);
}

TEST(CpuTopologyTest, DefaultWorkerCountFollowsThisThreadsMask) {
  // Narrows only this test thread's own affinity mask (pid 0 = the calling
  // thread) to its first allowed CPU, then restores it.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t narrowed = DefaultWorkerCount();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(narrowed, 1u);
}

}  // namespace
}  // namespace genealog
