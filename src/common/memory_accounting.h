// Per-SPE-instance accounting of live tuple bytes.
//
// The paper measures JVM heap usage per process. Here each SPE instance runs
// inside one host process, so we account the quantity the paper actually
// reasons about — bytes of tuples (and provenance annotations) that are still
// reachable — at allocation/release time. Each thread counts into its own
// shard (common/counter_shard.h) and every read folds the shards, so a read
// taken once the counting threads have joined is exact. A sampling helper
// turns the folded counters into the avg/max series shown in Figures 12–13,
// and ReadRssBytes() provides the OS-level sanity check. Counts whose owner
// keeps them are not repeated here: the tuple pool's slab footprint is
// pool::Stats::slab_bytes, and traversal scratch growth is
// TraversalScratch::grows().
#ifndef GENEALOG_COMMON_MEMORY_ACCOUNTING_H_
#define GENEALOG_COMMON_MEMORY_ACCOUNTING_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/counter_shard.h"

namespace genealog::mem {

using counters::kMaxInstances;

// The instance id new tuples are attributed to; worker threads of an SPE
// instance set this once at startup. Id 0 is the default "unattributed" pool.
void SetCurrentInstance(int instance_id);
int CurrentInstance();

// Counts `bytes` (and `tuples` live tuples) into or out of an instance, on
// the calling thread's shard. A tuple's birth is one Add with tuples = 1 and
// its death one Sub with tuples = 1, on whichever thread releases it.
void Add(int instance_id, int64_t bytes, int64_t tuples = 0);
void Sub(int instance_id, int64_t bytes, int64_t tuples = 0);

int64_t LiveBytes(int instance_id);
// The highest LiveBytes(instance_id) any fold has seen since ResetAll: the
// reads of LiveBytes and MemorySampler's samples. Shards cannot give an exact
// peak, so a peak between two reads goes unseen.
int64_t PeakBytes(int instance_id);

// Zeroes live bytes and peaks (between benchmark repetitions), in the shards
// of running and of exited threads alike; live tuple counts are kept. Not
// thread-safe with respect to concurrent Add/Sub; call only while no query is
// running.
void ResetAll();

// Count of live Tuple objects (all instances), for leak assertions in tests;
// kept per instance beside that instance's live bytes.
int64_t LiveTupleCount();

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
