// Operator node framework.
//
// A Node is a runtime operator instance: it owns one physical input queue
// (logical ports are tags on the batches) and holds endpoints into the input
// queues of downstream nodes. Its one execution body is Step: a dedicated
// thread (the Liebre execution model) runs it once with an unbounded budget,
// the worker pool runs it as a sequence of bounded quanta. Two base
// behaviours cover all operators:
//
//  * SingleInputNode — processes its one (already timestamp-sorted) input
//    stream batch by batch;
//  * MergingNode — deterministically merges multiple sorted input ports:
//    tuples are buffered per port and released in (ts, port) order, strictly
//    below the minimum input watermark, so the processing order is a pure
//    function of the data (§2's determinism requirement), independent of
//    thread scheduling, queue interleaving, and batch boundaries.
//
// The data plane is batched: queues carry StreamBatches, and each producing
// Endpoint accumulates tuples until a flush trigger (see Endpoint). The batch
// size is the topology's EngineOptions::batch_size, stamped on every edge by
// Topology::Connect; at batch size 1 every tuple is handed over individually,
// reproducing the unbatched engine.
#ifndef GENEALOG_SPE_NODE_H_
#define GENEALOG_SPE_NODE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/instrumentation.h"
#include "spe/batch_queue.h"
#include "spe/stream_batch.h"

namespace genealog {

inline constexpr size_t kDefaultQueueCapacity = 4096;
inline constexpr int64_t kWatermarkMin = std::numeric_limits<int64_t>::min();
inline constexpr int64_t kWatermarkMax = std::numeric_limits<int64_t>::max();

// A producer-side handle to one logical input port of a downstream node.
//
// The endpoint owns the producer half of the batching protocol: tuples
// accumulate in a pending batch that is handed to the queue when
//   * it reaches the edge's batch size (size trigger),
//   * the port's watermark advances (watermark trigger — watermarks are what
//     lets downstream merges and windows make progress, so they are never
//     held back; the tuples they vouch for travel in the same batch), or
//   * the stream ends (flush trigger).
// The queue additionally coalesces consecutive small batches of the same
// port up to the batch size (see StreamQueue), so chunks form wherever the
// consumer is the bottleneck.
//
// Adaptive batch sizing: the endpoint treats the edge's batch size as a
// *ceiling* rather than a fixed flush threshold. The effective threshold
// starts at 1 (seed-level latency) and is steered by the consumer-side queue
// depth sampled after each handoff: a backlog of at least two thresholds'
// worth of tuples doubles it (the consumer is behind — amortize), an empty
// queue halves it (the consumer drains instantly — favor latency). The
// threshold only moves within [1, batch_size], so at batch size 1 every
// tuple is handed over on its own, and the queue-side coalescing cap stays
// at the full batch size: under load, slivers flushed by a small threshold
// still glue together toward the batch size at the queue tail. Batch
// boundaries are semantically invisible (the determinism suites pin this),
// so the feedback loop affects latency and throughput only.
class Endpoint {
 public:
  Endpoint() = default;
  Endpoint(StreamQueue* queue, uint16_t port, size_t batch_size = 1)
      : queue_(queue), port_(port) {
    set_batch_size(batch_size);
    pending_.port = port;
  }

  Endpoint(Endpoint&&) = default;
  Endpoint& operator=(Endpoint&&) = default;

  uint16_t port() const { return port_; }
  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t n) {
    batch_size_ = n == 0 ? 1 : n;
    effective_batch_ = std::min(effective_batch_, batch_size_);
  }

  // --- pool mode (flipped by the scheduler before execution starts) --------
  // In non-blocking mode a handoff that would block instead parks the batch
  // in a per-endpoint spill buffer (order-preserving: once anything is
  // spilled, later handoffs append behind it) and marks the edge
  // producer-waiting so the consumer's next pop signals RoomFreed. The
  // emitting operator code is unchanged — it still sees `true` — and the
  // spill is bounded by what one morsel can emit, because the owning task is
  // not re-run until DrainSpill succeeds.
  void set_nonblocking(bool nonblocking) { nonblocking_ = nonblocking; }
  bool HasSpill() const { return !spill_.empty(); }

  // Re-offers spilled batches to the queue; returns true when the spill is
  // empty again. An aborted queue discards the spill (the consumer is gone),
  // matching the blocking push's failed-push semantics.
  bool DrainSpill() {
    while (!spill_.empty()) {
      switch (queue_->TryPush(spill_.front(), batch_size_)) {
        case PushStatus::kOk:
          spill_.pop_front();
          continue;
        case PushStatus::kAborted:
          spill_.clear();
          return true;
        case PushStatus::kFull:
          break;
      }
      queue_->MarkProducerWaiting();
      switch (queue_->TryPush(spill_.front(), batch_size_)) {
        case PushStatus::kOk:
          spill_.pop_front();
          continue;
        case PushStatus::kAborted:
          spill_.clear();
          return true;
        case PushStatus::kFull:
          return false;
      }
    }
    return true;
  }

  StreamQueue* queue() const { return queue_; }

  // All return false when the downstream queue was aborted, which Step
  // treats as a request to stop.
  bool PushTuple(TuplePtr t) {
    pending_.tuples.push_back(std::move(t));
    if (pending_.tuples.size() >= effective_batch_) return Flush();
    return true;
  }

  bool PushWatermark(int64_t wm) {
    pending_.watermark = std::max(pending_.watermark, wm);
    return Flush();
  }

  bool PushFlush() {
    pending_.flush = true;
    return Flush();
  }

  // Forwards a whole chunk (tuples + optional trailing watermark/flush) in
  // one call — the fast path for forwarding operators like Filter, which
  // would otherwise re-push tuple by tuple. When nothing is pending the
  // chunk is adopted wholesale (a pointer steal for heap-spilled batches).
  bool ForwardBatch(StreamBatch batch) {
    if (pending_.tuples.empty()) {
      batch.port = port_;
      batch.flush = batch.flush || pending_.flush;
      if (batch.tuples.size() >= effective_batch_ || batch.has_watermark() ||
          batch.flush) {
        pending_ = StreamBatch{};
        pending_.port = port_;
        return Handoff(std::move(batch));
      }
      pending_ = std::move(batch);
      return true;
    }
    pending_.tuples.AppendMoved(batch.tuples);
    pending_.watermark = std::max(pending_.watermark, batch.watermark);
    pending_.flush = pending_.flush || batch.flush;
    if (pending_.tuples.size() >= effective_batch_ ||
        pending_.has_watermark() || pending_.flush) {
      return Flush();
    }
    return true;
  }

  // Hands the pending batch to the queue (no-op when nothing is pending).
  bool Flush() {
    if (pending_.empty()) return true;
    StreamBatch batch = std::move(pending_);
    pending_ = StreamBatch{};
    pending_.port = port_;
    return Handoff(std::move(batch));
  }

 private:
  // One queue handover. The coalescing cap stays at the full batch size so
  // queue-side chunk-building is unaffected by the adaptive threshold; the
  // depth sample afterwards steers the next flush decision.
  bool Handoff(StreamBatch&& batch) {
    if (!nonblocking_) {
      const bool ok = queue_->Push(std::move(batch), batch_size_);
      if (ok) Adapt();
      return ok;
    }
    if (!spill_.empty()) {
      spill_.push_back(std::move(batch));
      return true;
    }
    switch (queue_->TryPush(batch, batch_size_)) {
      case PushStatus::kOk:
        Adapt();
        return true;
      case PushStatus::kAborted:
        return false;
      case PushStatus::kFull:
        break;
    }
    queue_->MarkProducerWaiting();
    switch (queue_->TryPush(batch, batch_size_)) {
      case PushStatus::kOk:
        Adapt();
        return true;
      case PushStatus::kAborted:
        return false;
      case PushStatus::kFull:
        break;
    }
    spill_.push_back(std::move(batch));
    return true;
  }

  void Adapt() {
    const size_t depth = queue_->ApproxWeight();
    if (depth >= 2 * effective_batch_) {
      effective_batch_ = std::min(effective_batch_ * 2, batch_size_);
    } else if (depth == 0 && effective_batch_ > 1) {
      effective_batch_ /= 2;
    }
  }

  StreamQueue* queue_ = nullptr;
  uint16_t port_ = 0;
  size_t batch_size_ = 1;
  size_t effective_batch_ = 1;
  bool nonblocking_ = false;
  StreamBatch pending_;
  std::deque<StreamBatch> spill_;
};

// Outcome of one execution quantum (Node::Step):
//  * kIdle  — out of input (pool mode only): park until an edge signal
//             re-arms the task;
//  * kReady — the budget ran out with work left: the pool reschedules
//             through the fair injector, a dedicated thread steps again;
//  * kDone  — end of stream (flush processed, or input queue aborted and
//             drained): the node is finished once its output spills drain.
enum class StepResult : uint8_t { kIdle, kReady, kDone };

// The budget a dedicated thread steps with: run until end of stream.
inline constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

class Node {
 public:
  explicit Node(std::string name);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // The execution body: consume up to `max_batches` input batches (sources:
  // emit up to that many chunks), emit downstream, and report how to
  // continue. Must drain inputs until flush/abort and emit a final flush
  // before reporting kDone. Outside pool mode Step may block — the input
  // pop waits while empty and emission waits for room — so a dedicated
  // thread is just `while (Step(kUnbounded) != StepResult::kDone) {}`. In
  // pool mode it must never block on a stream queue.
  virtual StepResult Step(size_t max_batches) = 0;

  // Nodes whose Step blocks on resources other than their stream queues —
  // network channels (Receive/Send), rate-limiter clocks — keep a dedicated
  // thread even under the pool scheduler.
  virtual bool NeedsDedicatedThread() const { return false; }

  // Switches the node to pool mode: output endpoints spill instead of
  // blocking, and the input pop reports empty instead of waiting. Called
  // once by the scheduler between topology build and execution.
  void EnterPoolMode() {
    pool_mode_ = true;
    for (Endpoint& e : outputs_) e.set_nonblocking(true);
  }
  // Re-offers spilled output batches; true when every endpoint drained.
  bool DrainSpills() {
    bool all = true;
    for (Endpoint& e : outputs_) all = e.DrainSpill() && all;
    return all;
  }
  bool HasSpills() const {
    for (const Endpoint& e : outputs_) {
      if (e.HasSpill()) return true;
    }
    return false;
  }
  // Enumerates the downstream queues this node produces into (the scheduler
  // maps them to producer tasks for RoomFreed wiring).
  template <typename Fn>
  void ForEachOutputQueue(Fn&& fn) {
    for (Endpoint& e : outputs_) fn(e.queue());
  }

  const std::string& name() const { return name_; }
  uint64_t uid() const { return uid_; }

  // Test-only: sets the uid the next constructed node receives and returns
  // the previous value, so a test can reach kMaxNodeUid and restore.
  static uint64_t ExchangeNextUidForTesting(uint64_t next);

  int instance_id() const { return instance_id_; }
  void set_instance_id(int id) { instance_id_ = id; }

  ProvenanceMode mode() const { return mode_; }
  void set_mode(ProvenanceMode mode) { mode_ = mode; }

  // --- wiring (used by Topology) -------------------------------------------
  // Registers a new logical input port and returns the producer-side handle.
  Endpoint AddInput();
  StreamQueue* input_queue() { return in_queue_.get(); }
  size_t num_inputs() const { return num_ports_; }

  void AddOutput(Endpoint e) { outputs_.push_back(std::move(e)); }
  size_t num_outputs() const { return outputs_.size(); }

  // Aborts the input queue (and, in overrides, whatever else a node blocks
  // on) so the node's Step unwinds; the failure path of Topology::AbortAll.
  virtual void AbortQueues();

  // Tuples processed by this node (inputs for operators, emissions for
  // sources); read by harnesses after the run.
  uint64_t tuples_processed() const {
    return tuples_processed_.load(std::memory_order_relaxed);
  }

 protected:
  // Globally unique tuple id (layout: kTupleSeqBits in core/tuple.h). A
  // sequence past its field would corrupt the uid bits and alias ids across
  // nodes, so an exhausted node throws std::overflow_error (in every build
  // type) instead of minting an id.
  uint64_t NextTupleId() {
    if (next_seq_ > kTupleSeqMask) ThrowSequenceOverflow();
    return (uid_ << kTupleSeqBits) | next_seq_++;
  }
  // Test-only: lets a test reach the end of the sequence field without
  // minting 2^40 ids.
  void StartSequenceAtForTesting(uint64_t seq) { next_seq_ = seq; }

  // Moves up to `max_batches` input batches into `out`. Outside pool mode
  // the pop waits while the queue is empty, so it never reports kEmpty.
  PopStatus PopInput(std::vector<StreamBatch>& out, size_t max_batches) {
    return in_queue_->PopSome(out, max_batches, /*wait=*/!pool_mode_);
  }

  // Emission helpers. All return false when a downstream queue was aborted,
  // which Step treats as a request to stop.
  bool EmitTupleTo(size_t out_idx, TuplePtr t) {
    return outputs_[out_idx].PushTuple(std::move(t));
  }
  // Hands a chunk this node created (not a forwarded input batch — watermark
  // de-duplication is the caller's business) to one output. Creating
  // operators use this to clone/build straight into the outgoing chunk
  // instead of re-pushing tuple by tuple.
  bool EmitBatchTo(size_t out_idx, StreamBatch&& batch) {
    return outputs_[out_idx].ForwardBatch(std::move(batch));
  }
  bool EmitTupleAll(const TuplePtr& t);
  // Monotonic watermark broadcast: non-increasing or infinite values are
  // swallowed (flush carries the end-of-stream meaning).
  bool ForwardWatermark(int64_t wm);
  void EmitFlushAll();
  // Forwards a chunk to every output, applying the same watermark
  // de-duplication as ForwardWatermark. With a single output the chunk moves
  // wholesale; the flush flag must be left to Step (see OnBatch).
  bool ForwardBatchAll(StreamBatch&& batch);

  void CountProcessed(uint64_t n = 1) {
    tuples_processed_.fetch_add(n, std::memory_order_relaxed);
  }

  // Largest uid whose shifted value keeps all its bits: node construction
  // past it throws std::overflow_error rather than alias ids.
  static constexpr uint64_t kMaxNodeUid =
      (uint64_t{1} << (64 - kTupleSeqBits)) - 1;

  std::vector<Endpoint> outputs_;

 private:
  [[noreturn]] void ThrowSequenceOverflow() const;

  std::string name_;
  uint64_t uid_;
  uint64_t next_seq_ = 0;
  int instance_id_ = 0;
  ProvenanceMode mode_ = ProvenanceMode::kNone;
  int64_t last_forwarded_wm_ = kWatermarkMin;
  std::atomic<uint64_t> tuples_processed_{0};
  std::unique_ptr<StreamQueue> in_queue_;
  size_t num_ports_ = 0;
  bool pool_mode_ = false;
};

// Base for one-input operators (Map, Filter, Multiplex, Aggregate, Sink, SU,
// Send). The input stream is sorted, so batches are handled as they arrive.
class SingleInputNode : public Node {
 public:
  using Node::Node;

  StepResult Step(size_t max_batches) override;

 protected:
  virtual void OnTuple(TuplePtr t) = 0;
  // Default: forward. Stateful operators override to fire windows first.
  virtual void OnWatermark(int64_t wm) { ForwardWatermark(wm); }
  // Called once before the final flush is forwarded.
  virtual void OnFlush() {}
  // Whole-batch hook: the default dispatches to OnTuple/OnWatermark in
  // stream order. Operators that can exploit the chunk (Send's
  // batch-at-a-time serialization, Filter's in-place chunk filtering)
  // override this; the flush marker is owned by Step — it is cleared before
  // this call and never visible here.
  virtual void OnBatch(StreamBatch& batch) {
    for (TuplePtr& t : batch.tuples) OnTuple(std::move(t));
    if (batch.has_watermark()) OnWatermark(batch.watermark);
  }

 private:
  std::vector<StreamBatch> step_burst_;
};

// Base for multi-input operators (Union, Join, MU). Implements the
// deterministic sorted merge described in the header comment.
class MergingNode : public Node {
 public:
  using Node::Node;

  StepResult Step(size_t max_batches) override;

 protected:
  // Tuples arrive in deterministic (ts, port, arrival) order.
  virtual void OnMergedTuple(size_t port, TuplePtr t) = 0;
  // The merged watermark advanced; wm is kWatermarkMax during the final
  // drain. Default forwards (ForwardWatermark swallows the infinite value).
  virtual void OnMergedWatermark(int64_t wm) { ForwardWatermark(wm); }
  // Called once after all inputs flushed and buffers drained.
  virtual void OnAllFlushed() {}

 private:
  struct PortState {
    std::deque<TuplePtr> buffer;
    int64_t wm = kWatermarkMin;
    bool flushed = false;
  };

  // The merge state lives in members so the pool scheduler can execute the
  // node as a resumable sequence of Steps; initialized once.
  void EnsureMergeState();
  // Folds one input batch into the per-port buffers and releases what the
  // advanced watermark allows.
  void ConsumeBatch(StreamBatch& batch);
  // Releases buffered tuples with ts < min watermark, in (ts, port) order.
  void ReleaseReady();
  int64_t MinWatermark() const;

  std::vector<PortState> ports_;
  size_t flushed_ports_ = 0;
  bool merge_state_ready_ = false;
  std::vector<StreamBatch> step_burst_;
  int64_t last_merged_wm_ = kWatermarkMin;
};

}  // namespace genealog

#endif  // GENEALOG_SPE_NODE_H_
