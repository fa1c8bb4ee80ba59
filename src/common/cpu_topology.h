// CPU-topology probe for the worker-count default.
//
// `GENEALOG_WORKERS=0` means "one worker per core the process may run on".
// On SMT machines a CPU is a hardware *thread*, so the pool would
// oversubscribe the physical cores with compute-bound workers; and a process
// pinned to a subset of the machine (taskset, an edge container's CPU set)
// must not start one worker per machine core. The probe takes the calling
// thread's affinity mask and counts the distinct physical cores among its
// CPUs, reading the Linux sysfs topology (cpuN/topology/{physical_package_id,
// core_id}). Without sysfs it falls back to the mask's CPU count. The sysfs
// root is a parameter so tests can run the parser against a mocked layout.
#ifndef GENEALOG_COMMON_CPU_TOPOLOGY_H_
#define GENEALOG_COMMON_CPU_TOPOLOGY_H_

#include <cstddef>
#include <string>
#include <vector>

namespace genealog {

// Distinct (physical_package_id, core_id) pairs among `cpus`, read under
// `sysfs_cpu_root` (default: the live machine). Returns 0 when any listed
// CPU's layout is missing or unreadable — callers fall back then.
size_t CountPhysicalCores(
    const std::vector<int>& cpus,
    const std::string& sysfs_cpu_root = "/sys/devices/system/cpu");

// The worker count `workers == 0` resolves to: the physical cores among the
// CPUs of the calling thread's affinity mask when the topology is readable,
// the mask's CPU count otherwise (hardware_concurrency() if the mask cannot
// be read), and at least 1.
size_t DefaultWorkerCount();

}  // namespace genealog

#endif  // GENEALOG_COMMON_CPU_TOPOLOGY_H_
