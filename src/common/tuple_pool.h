// Recycling slab allocator for tuple storage.
//
// GeneaLog's overhead argument (§4, §7) rests on tuple handling costing a
// small constant per tuple; once the data plane is batched, the global
// new/delete pair inside MakeTuple is the dominant remaining per-tuple cost.
// The pool replaces it with size-class slab allocation:
//
//  * sizes are rounded up to one of a few fixed size classes; each class
//    carves blocks out of large slabs obtained from the OS;
//  * every thread keeps a small per-class cache of free blocks, so the
//    steady-state allocate/release pair is two thread-local pointer pushes;
//  * the caches overflow into (and refill from) a mutex-protected central
//    free list per class, which also makes cross-thread release correct: a
//    producer thread may allocate a tuple whose last reference is dropped on
//    a downstream thread, in which case the block simply migrates to the
//    releasing thread's cache (and eventually to the central list);
//  * once warmed up, query execution allocates from the OS only when the
//    live-tuple high-water mark grows — slabs are never returned;
//  * an allocation is counted on the calling thread's counter shard
//    (common/counter_shard.h), beside the tuple's own birth, so the hot pair
//    writes no cache line another thread writes; slab carving is counted
//    under the class mutex it already holds. GetStats folds both.
//
// Callers record the size class a block came from (tuples stash it in their
// header, see core/tuple.h) and hand it back to Deallocate. Blocks larger
// than the biggest class come from the heap under kHeapClass.
#ifndef GENEALOG_COMMON_TUPLE_POOL_H_
#define GENEALOG_COMMON_TUPLE_POOL_H_

#include <cstddef>
#include <cstdint>

namespace genealog::pool {

// Block alignment every class guarantees (slabs come from operator new and
// class strides are multiples of it).
inline constexpr size_t kBlockAlign = alignof(std::max_align_t);

// Size classes are multiples of 64 bytes: 64, 128, ..., 512. Tuples cluster
// tightly here — the Tuple header is 96 bytes and payloads add a few words —
// so a linear stride wastes less than a geometric one would.
inline constexpr size_t kClassStride = 64;
inline constexpr int kNumClasses = 8;
inline constexpr size_t kMaxPooledBytes = kNumClasses * kClassStride;

// Sentinel class for blocks owned by the heap, not the pool.
inline constexpr uint8_t kHeapClass = 0xFF;

// Class serving `bytes`, or kHeapClass when bytes > kMaxPooledBytes.
constexpr uint8_t SizeClassFor(size_t bytes) {
  if (bytes > kMaxPooledBytes) return kHeapClass;
  const size_t rounded = bytes == 0 ? 1 : bytes;
  return static_cast<uint8_t>((rounded - 1) / kClassStride);
}

// Block size of a pooled class.
constexpr size_t ClassBytes(uint8_t size_class) {
  return (static_cast<size_t>(size_class) + 1) * kClassStride;
}

// Not a setting; edgebench's EngineJson reads it.
constexpr bool Enabled() { return true; }

// Allocates storage for `bytes`, writing the class the block belongs to into
// `size_class` (kHeapClass for heap fallback). Never returns null (throws
// std::bad_alloc like operator new).
void* Allocate(size_t bytes, uint8_t& size_class);

// Returns a block to the class it was allocated from.
void Deallocate(void* p, uint8_t size_class) noexcept;

// Drains the calling thread's caches into the central free lists, making
// every block it released visible to other threads (tests; also useful for
// short-lived worker threads, though thread exit flushes automatically).
void FlushThreadCache();

// --- observability -----------------------------------------------------------
struct Stats {
  uint64_t slabs = 0;            // slabs carved from the OS
  uint64_t slab_bytes = 0;       // total bytes reserved in slabs
  uint64_t pool_allocs = 0;      // allocations served by the pool
  uint64_t recycled_allocs = 0;  // ...of which reused a released block
  uint64_t heap_allocs = 0;      // oversize allocations served by the heap

  // Fraction of pooled allocations served by recycling rather than carving
  // fresh slab space — ~1.0 in steady state.
  double recycle_hit_rate() const {
    return pool_allocs == 0
               ? 0.0
               : static_cast<double>(recycled_allocs) /
                     static_cast<double>(pool_allocs);
  }
};

// Exact once the allocating threads have joined (see common/counter_shard.h).
Stats GetStats();
// Zeroes the flow counters (between benchmark repetitions / tests), in the
// shards of running and of exited threads alike; call only while no thread
// allocates. Slabs and free lists are untouched, so slabs/slab_bytes — gauges
// of reserved memory — keep their values.
void ResetStats();

}  // namespace genealog::pool

#endif  // GENEALOG_COMMON_TUPLE_POOL_H_
