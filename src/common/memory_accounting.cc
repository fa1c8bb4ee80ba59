#include "common/memory_accounting.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace genealog::mem {
namespace {

thread_local int tl_instance = 0;

}  // namespace

void SetCurrentInstance(int instance_id) { tl_instance = instance_id; }
int CurrentInstance() { return tl_instance; }

void Add(int instance_id, int64_t bytes, int64_t tuples) {
  counters::Shard& s = counters::Local();
  s.Add(counters::kBytes + instance_id, bytes);
  s.Add(counters::kTuples + instance_id, tuples);
}

void Sub(int instance_id, int64_t bytes, int64_t tuples) {
  Add(instance_id, -bytes, -tuples);
}

int64_t LiveBytes(int instance_id) {
  return counters::Fold()[counters::kBytes + instance_id];
}

int64_t PeakBytes(int instance_id) {
  return counters::Highest(counters::kBytes + instance_id);
}

void ResetAll() {
  counters::Reset(counters::kBytes, counters::kBytes + kMaxInstances);
}

int64_t LiveTupleCount() {
  const counters::Totals t = counters::Fold();
  int64_t total = 0;
  for (int i = 0; i < kMaxInstances; ++i) total += t[counters::kTuples + i];
  return total;
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
    const counters::Totals folded = counters::Fold();
    int64_t total = 0;
    for (int i = 0; i < n_instances_; ++i) {
      const int64_t live = folded[counters::kBytes + i];
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
