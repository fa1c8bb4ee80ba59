// Per-thread counters for a tuple's life.
//
// A tuple's birth and death are counted twice over: its instance's live bytes
// and live tuple count (common/memory_accounting.h) and the pool's allocation
// counts (common/tuple_pool.h). Both count into one per-thread Shard. A thread
// writes only its own shard, with a relaxed load and store, so a count takes no
// lock-prefixed instruction and writes no cache line another thread writes. A
// release on another thread subtracts on the releasing thread's shard.
//
// Readers fold: the retired total plus every attached shard, under the
// registry mutex. A thread attaches its shard when it first counts; when it
// exits, the shard's values move into the retired total. A fold taken after
// the writing threads joined is exact; one taken while they run sees each
// shard at some recent point. A thread that counts after its shard retired (a
// tuple released in a static destructor) attaches a shard that is never
// freed, and the registry itself is never freed, so that count is kept too.
#ifndef GENEALOG_COMMON_COUNTER_SHARD_H_
#define GENEALOG_COMMON_COUNTER_SHARD_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace genealog::counters {

// Instance ids a shard counts for, [0, kMaxInstances).
inline constexpr int kMaxInstances = 16;

// Slot layout of a shard: live bytes of instance i at kBytes + i, live tuples
// of instance i at kTuples + i, then the pool's allocation counts.
enum Slot : int {
  kBytes = 0,
  kTuples = kBytes + kMaxInstances,
  kPoolAllocs = kTuples + kMaxInstances,  // allocations served by the pool
  kHeapAllocs,                            // oversize ones served by the heap
  kSlots,
};

using Totals = std::array<int64_t, kSlots>;

// One thread's counters. Aligned so no two shards share a cache line.
struct alignas(64) Shard {
  std::atomic<int64_t> v[kSlots] = {};

  // Only the owning thread calls this: a plain read-add-write, not an RMW.
  void Add(int slot, int64_t delta) {
    std::atomic<int64_t>& c = v[slot];
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
};

// Attaches a shard to the calling thread (slow path of Local).
Shard& Attach();

// The calling thread's shard; null until the thread first counts.
inline constinit thread_local Shard* tl_shard = nullptr;

inline Shard& Local() {
  Shard* s = tl_shard;
  return s != nullptr ? *s : Attach();
}

// Every slot summed over the retired total and all attached shards. Each fold
// also raises the slot's highest value seen (Highest).
Totals Fold();

// The highest folded value of `slot` since its last Reset.
int64_t Highest(int slot);

// Zeroes slots [first, last) in every shard, the retired total and the
// highest-value record. Call only while no thread counts into those slots.
void Reset(int first, int last);

}  // namespace genealog::counters

#endif  // GENEALOG_COMMON_COUNTER_SHARD_H_
