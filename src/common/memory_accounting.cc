#include "common/memory_accounting.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>

namespace genealog::mem {
namespace {

// One cache line per instance. A tuple's birth and death update its
// instance's live bytes and tuple count on the same line, and no two
// instances share one. Left to the linker, the hot counters' line sharing
// moved with unrelated code size and swung the data plane by 10-15%.
struct alignas(64) Counters {
  std::atomic<int64_t> live{0};
  std::atomic<int64_t> peak{0};
  std::atomic<int64_t> tuples{0};
};

std::array<Counters, kMaxInstances>& counters() {
  static std::array<Counters, kMaxInstances> c;
  return c;
}

std::atomic<int64_t> g_pool_slab_bytes{0};
std::atomic<int64_t> g_traversal_scratch_bytes{0};

thread_local int tl_instance = 0;

}  // namespace

void SetCurrentInstance(int instance_id) { tl_instance = instance_id; }
int CurrentInstance() { return tl_instance; }

void Add(int instance_id, int64_t bytes) {
  Counters& c = counters()[static_cast<size_t>(instance_id)];
  const int64_t now =
      c.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  // Lossy peak update is fine: sampling races can only under-report peaks by
  // a few tuples' worth of bytes.
  int64_t prev = c.peak.load(std::memory_order_relaxed);
  while (now > prev &&
         !c.peak.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
  }
}

void Sub(int instance_id, int64_t bytes) {
  counters()[static_cast<size_t>(instance_id)].live.fetch_sub(
      bytes, std::memory_order_relaxed);
}

int64_t LiveBytes(int instance_id) {
  return counters()[static_cast<size_t>(instance_id)].live.load(
      std::memory_order_relaxed);
}

int64_t PeakBytes(int instance_id) {
  return counters()[static_cast<size_t>(instance_id)].peak.load(
      std::memory_order_relaxed);
}

int64_t TotalLiveBytes() {
  int64_t total = 0;
  for (int i = 0; i < kMaxInstances; ++i) total += LiveBytes(i);
  return total;
}

void ResetAll() {
  for (Counters& c : counters()) {
    c.live.store(0, std::memory_order_relaxed);
    c.peak.store(0, std::memory_order_relaxed);
  }
}

int64_t LiveTupleCount() {
  int64_t total = 0;
  for (const Counters& c : counters()) {
    total += c.tuples.load(std::memory_order_relaxed);
  }
  return total;
}
void AddTupleCount(int instance_id, int64_t delta) {
  counters()[static_cast<size_t>(instance_id)].tuples.fetch_add(
      delta, std::memory_order_relaxed);
}

int64_t PoolSlabBytes() {
  return g_pool_slab_bytes.load(std::memory_order_relaxed);
}
void AddPoolSlabBytes(int64_t bytes) {
  g_pool_slab_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

int64_t TraversalScratchBytes() {
  return g_traversal_scratch_bytes.load(std::memory_order_relaxed);
}
void AddTraversalScratchBytes(int64_t bytes) {
  g_traversal_scratch_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

int64_t ReadRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

MemorySampler::MemorySampler(int n_instances, int period_ms)
    : n_instances_(n_instances),
      period_ms_(period_ms),
      sum_(static_cast<size_t>(n_instances), 0),
      max_(static_cast<size_t>(n_instances), 0),
      thread_([this] { Run(); }) {}

MemorySampler::~MemorySampler() { Stop(); }

void MemorySampler::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void MemorySampler::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    int64_t total = 0;
    for (int i = 0; i < n_instances_; ++i) {
      const int64_t live = LiveBytes(i);
      sum_[static_cast<size_t>(i)] += live;
      max_[static_cast<size_t>(i)] =
          std::max(max_[static_cast<size_t>(i)], live);
      total += live;
    }
    total_sum_ += total;
    total_max_ = std::max(total_max_, total);
    ++samples_;
    std::this_thread::sleep_for(std::chrono::milliseconds(period_ms_));
  }
  done_.store(true, std::memory_order_release);
}

MemorySampler::Series MemorySampler::series(int instance_id) const {
  Series s;
  s.samples = samples_;
  if (samples_ > 0) {
    s.avg_bytes = static_cast<double>(sum_[static_cast<size_t>(instance_id)]) /
                  static_cast<double>(samples_);
    s.max_bytes = max_[static_cast<size_t>(instance_id)];
  }
  return s;
}

MemorySampler::Series MemorySampler::total() const {
  Series s;
  s.samples = samples_;
  if (samples_ > 0) {
    s.avg_bytes =
        static_cast<double>(total_sum_) / static_cast<double>(samples_);
    s.max_bytes = total_max_;
  }
  return s;
}

}  // namespace genealog::mem
