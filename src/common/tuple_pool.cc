#include "common/tuple_pool.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <vector>

#include "common/counter_shard.h"

namespace genealog::pool {
namespace {

// Blocks per refill batch between a thread cache and the central list; a
// thread cache holds at most kCacheCapacity blocks per class and spills half
// when full, so blocks keep circulating under producer/consumer imbalance
// (e.g. a sink thread that frees everything the source threads allocate).
constexpr size_t kRefillBatch = 64;
constexpr size_t kCacheCapacity = 256;

// Blocks carved per slab.
constexpr size_t kBlocksPerSlab = 256;

constexpr size_t kCacheLine = 64;
static_assert(kClassStride % kCacheLine == 0);

// The central free list is an array of block pointers, not an intrusive
// linked list: spill and refill are memcpys over the array's own storage, so
// the lock hold time never includes chasing next-pointers through block
// memory that was last written by another core.
struct CentralClass {
  std::mutex mu;
  std::vector<void*> free_blocks;  // guarded by mu
  char* bump = nullptr;            // unallocated region of the newest slab
  char* bump_end = nullptr;        // guarded by mu
  std::vector<void*> slabs;        // guarded by mu; freed never
  uint64_t fresh_carves = 0;       // guarded by mu; blocks carved from slabs
};

struct Central {
  CentralClass classes[kNumClasses];
};

// Leaked on purpose: thread caches flush into it from thread_local
// destructors, which may run after static destructors on the main thread.
Central& central() {
  static Central* c = new Central;
  return *c;
}

// Carves a fresh slab for `cls` and points the bump region at it. Caller
// holds cls.mu.
void AddSlab(CentralClass& cls, uint8_t size_class) {
  const size_t block = ClassBytes(size_class);
  const size_t bytes = block * kBlocksPerSlab;
  // Cache-line aligned: every class stride is a multiple of 64 bytes, so no
  // two blocks share a line, and two threads' neighbouring blocks never
  // false-share.
  char* slab =
      static_cast<char*>(::operator new(bytes, std::align_val_t{kCacheLine}));
  cls.slabs.push_back(slab);
  cls.bump = slab;
  cls.bump_end = slab + bytes;
  // Every block this slab adds could end up on the free array at once; grow
  // it outside the hot path so spills never reallocate mid-lock.
  cls.free_blocks.reserve(cls.slabs.size() * kBlocksPerSlab);
}

// Per-thread cache: a bounded LIFO of free blocks per class. It is
// trivially destructible, so it stays usable for as long as its thread runs:
// a release from a thread-local or static destructor still lands here. A
// separate FlushAtExit spills it back to the central lists at thread exit, so
// short-lived threads (bench repetitions spawn one thread per operator) don't
// strand blocks.
class ThreadCache {
 public:
  void* Pop(uint8_t size_class) {
    size_t& n = counts_[size_class];
    if (n == 0 && !Refill(size_class)) return nullptr;
    return blocks_[size_class][--n];
  }

  void Push(uint8_t size_class, void* p) {
    size_t& n = counts_[size_class];
    if (n == kCacheCapacity) Spill(size_class, kCacheCapacity / 2);
    blocks_[size_class][n++] = p;
  }

  void SpillAll() {
    for (int c = 0; c < kNumClasses; ++c) {
      Spill(static_cast<uint8_t>(c), counts_[c]);
    }
  }

 private:
  // Pulls blocks from the central class: a batch of recycled blocks off the
  // free array, or — only when it is empty — exactly one fresh block of
  // slab space. Carving one at a time keeps recycled_allocs exact
  // (pool_allocs - fresh_carves) and only costs an extra lock round-trip
  // during warm-up, the one phase the pool does not claim to optimize.
  bool Refill(uint8_t size_class) {
    CentralClass& cls = central().classes[size_class];
    size_t got = 0;
    {
      std::lock_guard lock(cls.mu);
      const size_t take = std::min(kRefillBatch, cls.free_blocks.size());
      if (take > 0) {
        void* const* from =
            cls.free_blocks.data() + cls.free_blocks.size() - take;
        std::copy(from, from + take, blocks_[size_class]);
        cls.free_blocks.resize(cls.free_blocks.size() - take);
        got = take;
      } else {
        if (cls.bump == cls.bump_end) AddSlab(cls, size_class);
        blocks_[size_class][got++] = cls.bump;
        cls.bump += ClassBytes(size_class);
        ++cls.fresh_carves;
      }
    }
    counts_[size_class] = got;
    return got > 0;
  }

  void Spill(uint8_t size_class, size_t n_spill) {
    size_t& n = counts_[size_class];
    if (n_spill == 0 || n == 0) return;
    if (n_spill > n) n_spill = n;
    CentralClass& cls = central().classes[size_class];
    std::lock_guard lock(cls.mu);
    cls.free_blocks.insert(cls.free_blocks.end(),
                           blocks_[size_class] + n - n_spill,
                           blocks_[size_class] + n);
    n -= n_spill;
  }

  void* blocks_[kNumClasses][kCacheCapacity] = {};
  size_t counts_[kNumClasses] = {};
};

constinit thread_local ThreadCache tl_cache;
constinit thread_local bool tl_flush_at_exit = false;

struct FlushAtExit {
  ~FlushAtExit() { tl_cache.SpillAll(); }
};

ThreadCache& thread_cache() {
  if (!tl_flush_at_exit) {
    tl_flush_at_exit = true;
    // Touch the central pool first so its (leaked) storage outlives every
    // thread cache, including the main thread's.
    central();
    thread_local FlushAtExit flush;
    (void)flush;
  }
  return tl_cache;
}

}  // namespace

void* Allocate(size_t bytes, uint8_t& size_class) {
  const uint8_t cls = SizeClassFor(bytes);
  if (cls == kHeapClass) {
    size_class = kHeapClass;
    counters::Local().Add(counters::kHeapAllocs, 1);
    return ::operator new(bytes);
  }
  size_class = cls;
  counters::Local().Add(counters::kPoolAllocs, 1);
  return thread_cache().Pop(cls);
}

void Deallocate(void* p, uint8_t size_class) noexcept {
  if (p == nullptr) return;
  if (size_class == kHeapClass) {
    ::operator delete(p);
    return;
  }
  thread_cache().Push(size_class, p);
}

void FlushThreadCache() { thread_cache().SpillAll(); }

Stats GetStats() {
  const counters::Totals flow = counters::Fold();
  Stats s;
  s.pool_allocs = static_cast<uint64_t>(flow[counters::kPoolAllocs]);
  s.heap_allocs = static_cast<uint64_t>(flow[counters::kHeapAllocs]);
  uint64_t fresh = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    CentralClass& cls = central().classes[c];
    std::lock_guard lock(cls.mu);
    fresh += cls.fresh_carves;
    s.slabs += cls.slabs.size();
    s.slab_bytes +=
        cls.slabs.size() * ClassBytes(static_cast<uint8_t>(c)) * kBlocksPerSlab;
  }
  s.recycled_allocs = s.pool_allocs > fresh ? s.pool_allocs - fresh : 0;
  return s;
}

void ResetStats() {
  counters::Reset(counters::kPoolAllocs, counters::kHeapAllocs + 1);
  for (CentralClass& cls : central().classes) {
    std::lock_guard lock(cls.mu);
    cls.fresh_carves = 0;
  }
}

}  // namespace genealog::pool
