// The edge half of a pull-based U stream (genealog/pull.h): the bounded index
// in which an instance-crossing SU retains its delivering tuples until the
// provenance instance either asks for them or proves it never will.
//
// Keyed by delivering id, ordered by ts (the delivering stream is sorted, so
// arrival order is ts order). Three events move a tuple out:
//  * Take — the provenance instance asked for it: the serving node unfolds it
//    and the index forgets it (counted requested);
//  * AdvanceFrontier — the MU frontier W echoed by a request passed
//    ts + ws: no later derived tuple can match it in the MU's join, so no
//    request will ever name it (counted evicted unrequested);
//  * Clear — the request direction ended (the rest, likewise unrequested).
// A request whose ts lies below the eviction horizon (W - ws of the last
// frontier) names a tuple the index may already have dropped: a named error,
// never a silent gap in a provenance record.
//
// The bound is fixed: once `capacity` entries await the frontier the SU
// waits in AwaitRoom (backpressure on its data path), and if nothing is
// evicted for `stall_timeout` that throws a named error instead of waiting
// forever — a frontier that stays stalled, or a window too wide for the
// bound, must not hang the run.
#ifndef GENEALOG_GENEALOG_RETENTION_H_
#define GENEALOG_GENEALOG_RETENTION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/tuple.h"

namespace genealog {

struct RetentionSpec {
  // The MU join window: a retained tuple is evicted once the echoed MU
  // frontier passes ts + ws.
  int64_t ws = 0;
  // Entries awaiting the frontier before Retain blocks. 64 Ki delivering
  // tuples covers an hour-wide Q4 window many times over.
  size_t capacity = size_t{1} << 16;
  // How long a full index may go without an eviction before Retain fails.
  std::chrono::milliseconds stall_timeout{30'000};
};

class RetentionIndex {
 public:
  // `owner` names the SU in error messages.
  RetentionIndex(std::string owner, RetentionSpec spec);

  RetentionIndex(const RetentionIndex&) = delete;
  RetentionIndex& operator=(const RetentionIndex&) = delete;

  // SU thread. Retains the non-SOURCE tuples of `tuples` in order — a
  // SOURCE tuple crosses as SOURCE, so no request ever names it — until the
  // index is full or aborted, and returns how many tuples it consumed.
  size_t Retain(std::span<const TuplePtr> tuples);
  // SU thread, after Retain stopped short: blocks until the frontier frees
  // room. Returns false once aborted; throws std::runtime_error when nothing
  // is evicted for stall_timeout.
  bool AwaitRoom();

  // Serving thread. Moves the tuple retained under `id` into `out` and
  // returns true; false when this index does not hold it (it crossed on
  // another channel). Throws std::runtime_error naming the id and the
  // horizon when `ts` lies below the eviction horizon.
  bool Take(uint64_t id, int64_t ts, TuplePtr& out);

  // Serving thread. The MU frontier reached `frontier`: evicts every entry
  // with ts + ws < frontier.
  void AdvanceFrontier(int64_t frontier);

  // Releases everything still retained (counted evicted unrequested).
  void Clear();

  // Wakes a blocked Retain, which then returns false.
  void Abort();

  // Exact once both the SU and the serving node finished (after
  // Runner::Join); retained == requested + evicted_unrequested then.
  uint64_t retained() const;
  uint64_t requested() const;
  uint64_t evicted_unrequested() const;
  // Entries awaiting the frontier now, and the most there ever were.
  size_t size() const;
  size_t peak() const;

 private:
  // Moves evicted tuples out under the lock; the caller releases them (and
  // the contribution graphs they pin) after unlocking.
  void PopFrontLocked(std::vector<TuplePtr>& released);

  const std::string owner_;
  RetentionSpec spec_;

  mutable std::mutex mu_;
  std::condition_variable room_;
  // (ts, id) in arrival order; an entry whose id was taken stays until the
  // frontier passes it, so the bound counts every entry awaiting it.
  std::deque<std::pair<int64_t, uint64_t>> order_;
  std::unordered_map<uint64_t, TuplePtr> by_id_;
  int64_t horizon_;
  uint64_t evictions_ = 0;  // entries popped, for stall detection
  bool aborted_ = false;
  uint64_t retained_ = 0;
  uint64_t requested_ = 0;
  uint64_t evicted_unrequested_ = 0;
  size_t peak_ = 0;
};

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_RETENTION_H_
