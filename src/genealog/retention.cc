#include "genealog/retention.h"

#include <limits>
#include <stdexcept>
#include <vector>

#include "common/int_math.h"

namespace genealog {

RetentionIndex::RetentionIndex(std::string owner, RetentionSpec spec)
    : owner_(std::move(owner)),
      spec_(spec),
      horizon_(std::numeric_limits<int64_t>::min()) {
  if (spec_.capacity == 0) spec_.capacity = 1;
}

size_t RetentionIndex::Retain(std::span<const TuplePtr> tuples) {
  std::lock_guard lock(mu_);
  size_t n = 0;
  for (; n < tuples.size() && !aborted_; ++n) {
    const TuplePtr& t = tuples[n];
    if (t->kind == TupleKind::kSource) continue;
    if (order_.size() >= spec_.capacity) break;
    if (!by_id_.try_emplace(t->id, t).second) continue;  // same id twice
    order_.emplace_back(t->ts, t->id);
    ++retained_;
    if (order_.size() > peak_) peak_ = order_.size();
  }
  return n;
}

bool RetentionIndex::AwaitRoom() {
  std::unique_lock lock(mu_);
  auto deadline = std::chrono::steady_clock::now() + spec_.stall_timeout;
  uint64_t seen = evictions_;
  while (order_.size() >= spec_.capacity && !aborted_) {
    if (room_.wait_until(lock, deadline) != std::cv_status::timeout) continue;
    if (order_.size() < spec_.capacity || aborted_) break;
    if (evictions_ == seen) {
      throw std::runtime_error(
          owner_ + ": retention index full at " +
          std::to_string(spec_.capacity) +
          " delivering tuples and nothing evicted for " +
          std::to_string(spec_.stall_timeout.count()) +
          " ms (the MU frontier is stalled)");
    }
    seen = evictions_;
    deadline = std::chrono::steady_clock::now() + spec_.stall_timeout;
  }
  return !aborted_;
}

bool RetentionIndex::Take(uint64_t id, int64_t ts, TuplePtr& out) {
  std::lock_guard lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    if (ts < horizon_) {
      throw std::runtime_error(
          owner_ + ": request for delivering tuple " + std::to_string(id) +
          " (ts " + std::to_string(ts) + ") is below the eviction horizon " +
          std::to_string(horizon_));
    }
    return false;
  }
  out = std::move(it->second);
  by_id_.erase(it);
  ++requested_;
  return true;
}

void RetentionIndex::PopFrontLocked(std::vector<TuplePtr>& released) {
  auto it = by_id_.find(order_.front().second);
  if (it != by_id_.end()) {
    released.push_back(std::move(it->second));
    by_id_.erase(it);
    ++evicted_unrequested_;
  }
  order_.pop_front();
  ++evictions_;
}

void RetentionIndex::AdvanceFrontier(int64_t frontier) {
  std::vector<TuplePtr> released;
  {
    std::lock_guard lock(mu_);
    const int64_t horizon = SatSub(frontier, spec_.ws);
    if (horizon <= horizon_) return;
    horizon_ = horizon;
    while (!order_.empty() && order_.front().first < horizon_) {
      PopFrontLocked(released);
    }
  }
  if (!released.empty()) room_.notify_all();
}

void RetentionIndex::Clear() {
  std::vector<TuplePtr> released;
  {
    std::lock_guard lock(mu_);
    while (!order_.empty()) PopFrontLocked(released);
  }
  room_.notify_all();
}

void RetentionIndex::Abort() {
  {
    std::lock_guard lock(mu_);
    aborted_ = true;
  }
  room_.notify_all();
}

uint64_t RetentionIndex::retained() const {
  std::lock_guard lock(mu_);
  return retained_;
}

uint64_t RetentionIndex::requested() const {
  std::lock_guard lock(mu_);
  return requested_;
}

uint64_t RetentionIndex::evicted_unrequested() const {
  std::lock_guard lock(mu_);
  return evicted_unrequested_;
}

size_t RetentionIndex::size() const {
  std::lock_guard lock(mu_);
  return order_.size();
}

size_t RetentionIndex::peak() const {
  std::lock_guard lock(mu_);
  return peak_;
}

}  // namespace genealog
