// Per-SPE-instance accounting of live tuple bytes.
//
// The paper measures JVM heap usage per process. Here each SPE instance runs
// inside one host process, so we account the quantity the paper actually
// reasons about — bytes of tuples (and provenance annotations) that are still
// reachable — exactly, at allocation/release time. A sampling helper turns the
// instantaneous counters into the avg/max series shown in Figures 12–13, and
// ReadRssBytes() provides the OS-level sanity check.
#ifndef GENEALOG_COMMON_MEMORY_ACCOUNTING_H_
#define GENEALOG_COMMON_MEMORY_ACCOUNTING_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace genealog::mem {

inline constexpr int kMaxInstances = 16;

// The instance id new tuples are attributed to; worker threads of an SPE
// instance set this once at startup. Id 0 is the default "unattributed" pool.
void SetCurrentInstance(int instance_id);
int CurrentInstance();

void Add(int instance_id, int64_t bytes);
void Sub(int instance_id, int64_t bytes);

int64_t LiveBytes(int instance_id);
int64_t PeakBytes(int instance_id);
int64_t TotalLiveBytes();

// Zeroes all counters (between benchmark repetitions). Not thread-safe with
// respect to concurrent Add/Sub; call only while no query is running.
void ResetAll();

// Count of live Tuple objects (all instances), for leak assertions in tests;
// kept per instance beside that instance's live bytes.
int64_t LiveTupleCount();
void AddTupleCount(int instance_id, int64_t delta);

// Bytes the tuple pool has reserved from the OS in slabs (process-wide,
// monotonic — slabs are never returned). Tracked separately from LiveBytes:
// per-tuple accounting stays identical with the pool on or off, so the
// paper's memory figures remain comparable, while the slab gauge exposes the
// pool's actual OS footprint.
int64_t PoolSlabBytes();
void AddPoolSlabBytes(int64_t bytes);

// Heap bytes currently held by recycled traversal scratch structures (the
// BFS work ring and visited pointer set of genealog/traversal.h),
// process-wide. The structures grow geometrically to the workload's largest
// contribution graph and then stop: the traversal allocation-regression test
// asserts this gauge is flat after warm-up.
int64_t TraversalScratchBytes();
void AddTraversalScratchBytes(int64_t bytes);

// Resident set size of the host process, in bytes (Linux /proc/self/statm).
int64_t ReadRssBytes();

// Periodically samples LiveBytes for a set of instances; used by benches to
// produce average/maximum memory per instance over a run.
class MemorySampler {
 public:
  struct Series {
    double avg_bytes = 0;
    int64_t max_bytes = 0;
    int64_t samples = 0;
  };

  // Samples every `period_ms` until Stop(). Instance ids are 0..n_instances-1.
  MemorySampler(int n_instances, int period_ms);
  ~MemorySampler();
  MemorySampler(const MemorySampler&) = delete;
  MemorySampler& operator=(const MemorySampler&) = delete;

  void Stop();
  Series series(int instance_id) const;
  Series total() const;

 private:
  void Run();

  int n_instances_;
  int period_ms_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::vector<int64_t> sum_;
  std::vector<int64_t> max_;
  int64_t total_max_ = 0;
  int64_t total_sum_ = 0;
  int64_t samples_ = 0;
  std::thread thread_;  // started last, after all state is initialized
};

}  // namespace genealog::mem

#endif  // GENEALOG_COMMON_MEMORY_ACCOUNTING_H_
