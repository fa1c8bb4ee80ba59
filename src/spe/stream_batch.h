// The unit flowing over a stream between two operator nodes: a chunk of
// consecutive tuples from one logical port, plus stream-control metadata.
//
// A batch carries, in stream order:
//   1. `tuples`   — zero or more timestamp-sorted tuples;
//   2. `watermark`— an optional high-watermark that applies *after* the
//                   tuples: every future tuple on this port has
//                   ts >= watermark (kNoWatermark when absent);
//   3. `flush`    — optional end-of-stream marker (implies an infinite
//                   watermark; nothing follows on this port).
//
// Folding intermediate watermarks into a single trailing high-watermark is
// safe under §2's sorted-stream contract: a tuple that arrives after a
// watermark w has ts >= w, so no window that could fire at w ever contains
// it, and the deterministic (ts, port) merge order of MergingNode is a pure
// function of the tuple data, not of watermark granularity. The batching
// determinism tests pin this down across batch sizes.
//
// Every node owns a single physical input queue; logical input ports are
// distinguished by the `port` tag stamped by the producing endpoint. This
// keeps multi-input nodes deadlock-free in diamond topologies (e.g. Q4's
// Multiplex -> {Aggregate, Filter} -> Join): the consumer can always drain
// whichever upstream is ready, while the deterministic merge order is
// reconstructed from per-port buffers and watermarks, not arrival order.
#ifndef GENEALOG_SPE_STREAM_BATCH_H_
#define GENEALOG_SPE_STREAM_BATCH_H_

#include <cstdint>
#include <limits>

#include "common/small_vec.h"
#include "core/tuple.h"

namespace genealog {

// Sentinel for "no watermark in this batch". Identical to the merge-state
// floor kWatermarkMin: a watermark at the floor promises nothing, so the two
// meanings coincide.
inline constexpr int64_t kNoWatermark = std::numeric_limits<int64_t>::min();

// Results of StreamQueue's operations, none of which blocks: a task never
// waits on an edge, so every wait turns into one of these statuses plus a
// readiness signal.
enum class PushStatus : uint8_t { kOk, kFull, kAborted };
enum class PopStatus : uint8_t { kPopped, kEmpty, kAborted };

struct StreamBatch {
  // Inline capacity: batches under flush pressure (watermark advances, small
  // batch knobs) stay off the heap.
  static constexpr size_t kInlineTuples = 8;

  uint16_t port = 0;                        // logical input port at consumer
  SmallVec<TuplePtr, kInlineTuples> tuples; // timestamp-sorted chunk
  int64_t watermark = kNoWatermark;         // applies after `tuples`
  bool flush = false;                       // end-of-stream after `tuples`

  bool has_watermark() const { return watermark != kNoWatermark; }
  bool empty() const { return tuples.empty() && !has_watermark() && !flush; }

  // Back-pressure weight: tuples are the unit of queue capacity; control-only
  // batches (watermark/flush) cost one slot so they still bound queue growth.
  size_t weight() const { return tuples.empty() ? 1 : tuples.size(); }

  static StreamBatch MakeTuple(TuplePtr t) {
    StreamBatch b;
    b.tuples.push_back(std::move(t));
    return b;
  }

  static StreamBatch MakeWatermark(int64_t wm) {
    StreamBatch b;
    b.watermark = wm;
    return b;
  }

  static StreamBatch MakeFlush() {
    StreamBatch b;
    b.flush = true;
    return b;
  }
};

}  // namespace genealog

#endif  // GENEALOG_SPE_STREAM_BATCH_H_
