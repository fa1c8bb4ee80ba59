#include "common/cpu_topology.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <utility>

namespace genealog {
namespace {

// Reads a small integer file ("3\n"); returns false when the file is absent
// or not a number.
bool ReadIntFile(const std::string& path, long& out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char buf[64];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  char* end = nullptr;
  out = std::strtol(buf, &end, 10);
  return end != buf;
}

}  // namespace

size_t CountPhysicalCores(const std::vector<int>& cpus,
                          const std::string& sysfs_cpu_root) {
  std::set<std::pair<long, long>> cores;
  for (const int cpu : cpus) {
    const std::string topo =
        sysfs_cpu_root + "/cpu" + std::to_string(cpu) + "/topology";
    long package = 0;
    long core = 0;
    if (!ReadIntFile(topo + "/physical_package_id", package) ||
        !ReadIntFile(topo + "/core_id", core)) {
      return 0;
    }
    cores.emplace(package, core);
  }
  return cores.size();
}

size_t DefaultWorkerCount() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
    }
  }
  size_t n = CountPhysicalCores(cpus);
  if (n == 0) n = cpus.size();
  if (n == 0) n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace genealog
