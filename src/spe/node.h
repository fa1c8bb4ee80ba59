// Operator node framework.
//
// A Node is a runtime operator instance: it owns one physical input queue
// (logical ports are tags on the batches; a chained node has none) and holds
// endpoints into the input queues of downstream nodes, or into chained
// nodes. Its one execution body is Step, a bounded
// quantum the executor (spe/scheduler.h) runs on a shared or a home worker.
// Step never blocks on a stream queue: the input pop reports empty instead
// of waiting, and an emission into a full edge spills at the endpoint. Two
// base behaviours cover all operators:
//
//  * SingleInputNode — processes its one (already timestamp-sorted) input
//    stream batch by batch;
//  * MergingNode — deterministically merges multiple sorted input ports:
//    tuples are buffered per port and released in (ts, port) order, strictly
//    below the minimum input watermark, so the processing order is a pure
//    function of the data (§2's determinism requirement), independent of
//    thread scheduling, queue interleaving, and batch boundaries.
//
// Back-pressure has one rule: a Step ends at the first batch, frame or
// chunk boundary after any output spilled, and keeps the unprocessed rest of
// its burst for the next Step, which the executor runs only once the spills
// drained. So a spill is bounded by what one input batch (frame, chunk)
// emits, and no node waits on a channel, a pacing clock or a retention
// index while it holds output it has not delivered.
//
// The data plane is batched: queues carry StreamBatches, and each producing
// Endpoint accumulates tuples until a flush trigger (see Endpoint). The batch
// size is the topology's EngineOptions::batch_size, stamped on every edge by
// Topology::Connect; at batch size 1 every tuple is handed over individually,
// reproducing the unbatched engine.
//
// A chained edge (Topology::Chain) has no queue: its endpoint calls the
// consuming SingleInputNode on the producer's thread for every push, so a
// run of cheap operators costs no handoff between cores (the paper's §2
// operator chaining). The chained node keeps its name, uid, id sequence and
// counters, but has no input queue and no task: its producer's Step runs
// it, and the spill, queue and abort walks below reach through it.
#ifndef GENEALOG_SPE_NODE_H_
#define GENEALOG_SPE_NODE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/instrumentation.h"
#include "spe/batch_queue.h"
#include "spe/stream_batch.h"

namespace genealog {

class SingleInputNode;

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
//
// A chained endpoint targets a SingleInputNode instead of a queue. It keeps
// no pending batch and no spill: each push hands the tuple, batch, watermark
// or flush straight to the consumer's ProcessBatch on the calling thread,
// and reports whether a queue after the chain was aborted. Its spills are
// the spills of the consumer's own outputs.
class Endpoint {
 public:
  Endpoint() = default;
  Endpoint(StreamQueue* queue, uint16_t port, size_t batch_size = 1)
      : queue_(queue), port_(port) {
    set_batch_size(batch_size);
    pending_.port = port;
  }
  // A chained edge into `consumer`. The batch size only informs the
  // producer (a source's stimulus cadence); nothing accumulates here.
  Endpoint(SingleInputNode* consumer, size_t batch_size) : chained_(consumer) {
    set_batch_size(batch_size);
  }

  Endpoint(Endpoint&&) = default;
  Endpoint& operator=(Endpoint&&) = default;

  uint16_t port() const { return port_; }
  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t n) {
    batch_size_ = n == 0 ? 1 : n;
    effective_batch_ = std::min(effective_batch_, batch_size_);
  }

  // A handoff into a full edge parks the batch in a per-endpoint spill
  // buffer (order-preserving: once anything is spilled, later handoffs
  // append behind it) and marks the edge producer-waiting so the consumer's
  // next pop signals RoomFreed. The emitting operator code still sees
  // `true`; its Step ends at the next batch boundary (see Node), and the
  // executor re-runs the node only once DrainSpill succeeded.
  inline bool HasSpill() const;

  // Re-offers spilled batches to the queue; returns true when the spill is
  // empty again. An aborted queue discards the spill (the consumer is gone).
  inline bool DrainSpill();

  // Null for a chained edge.
  StreamQueue* queue() const { return queue_; }
  // The consumer of a chained edge; null for a queue edge.
  SingleInputNode* chained() const { return chained_; }

  // The queue this endpoint feeds, or a queue after its chain, was aborted.
  inline bool Aborted() const;

  // All return false when the downstream queue (for a chained edge: any
  // queue after the chain) was aborted, which Step treats as a request to
  // stop.
  bool PushTuple(TuplePtr t) {
    if (chained_ != nullptr) {
      return Deliver(StreamBatch::MakeTuple(std::move(t)));
    }
    pending_.tuples.push_back(std::move(t));
    if (pending_.tuples.size() >= effective_batch_) return Flush();
    return true;
  }

  bool PushWatermark(int64_t wm) {
    if (chained_ != nullptr) return Deliver(StreamBatch::MakeWatermark(wm));
    pending_.watermark = std::max(pending_.watermark, wm);
    return Flush();
  }

  bool PushFlush() {
    if (chained_ != nullptr) return Deliver(StreamBatch::MakeFlush());
    pending_.flush = true;
    return Flush();
  }

  // Forwards a whole chunk (tuples + optional trailing watermark/flush) in
  // one call — the fast path for forwarding operators like Filter, which
  // would otherwise re-push tuple by tuple. When nothing is pending the
  // chunk is adopted wholesale (a pointer steal for heap-spilled batches).
  bool ForwardBatch(StreamBatch batch) {
    if (chained_ != nullptr) return Deliver(std::move(batch));
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

  // Hands the pending batch to the queue (no-op when nothing is pending,
  // which a chained edge always is).
  bool Flush() {
    if (pending_.empty()) return true;
    StreamBatch batch = std::move(pending_);
    pending_ = StreamBatch{};
    pending_.port = port_;
    return Handoff(std::move(batch));
  }

 private:
  // Runs the chained consumer on one batch (defined after SingleInputNode).
  inline bool Deliver(StreamBatch batch);

  // One queue handover. The coalescing cap stays at the full batch size so
  // queue-side chunk-building is unaffected by the adaptive threshold; the
  // depth sample afterwards steers the next flush decision.
  bool Handoff(StreamBatch&& batch) {
    if (spill_.empty()) {
      switch (Offer(batch)) {
        case PushStatus::kOk:
          Adapt();
          return true;
        case PushStatus::kAborted:
          return false;
        case PushStatus::kFull:
          break;
      }
    }
    spill_.push_back(std::move(batch));
    return true;
  }

  // TryPush; on kFull, declare this producer waiting and retry once, so
  // either the retry lands or the consumer's next pop fires RoomFreed.
  PushStatus Offer(StreamBatch& batch) {
    const PushStatus status = queue_->TryPush(batch, batch_size_);
    if (status != PushStatus::kFull) return status;
    queue_->MarkProducerWaiting();
    return queue_->TryPush(batch, batch_size_);
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
  SingleInputNode* chained_ = nullptr;
  uint16_t port_ = 0;
  size_t batch_size_ = 1;
  size_t effective_batch_ = 1;
  StreamBatch pending_;
  std::deque<StreamBatch> spill_;
};

// Outcome of one execution quantum (Node::Step):
//  * kIdle  — out of input: park until an edge signal re-arms the task;
//  * kReady — the budget ran out with work left, or an output spilled: run
//             again (once the spills drained);
//  * kDone  — end of stream (flush processed, or input queue aborted and
//             drained): the node is finished once its output spills drain.
enum class StepResult : uint8_t { kIdle, kReady, kDone };

class Node {
 public:
  explicit Node(std::string name);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // The execution body: consume up to `max_batches` input batches (sources:
  // emit up to that many chunks), emit downstream, and report how to
  // continue. Must drain inputs until flush/abort and emit a final flush
  // before reporting kDone. Never blocks on a stream queue, and ends at the
  // first batch boundary after an output spilled (see the header comment).
  virtual StepResult Step(size_t max_batches) = 0;

  // Nodes whose Step blocks on resources other than their stream queues —
  // network channels (Receive/Send), rate-limiter clocks, a retention index
  // — get a home worker of their own even when the other nodes share the
  // worker pool.
  virtual bool NeedsDedicatedThread() const { return false; }

  // Re-offers spilled output batches; true when every endpoint drained.
  // Like HasSpills, ForEachOutputQueue and AbortQueues, it reaches through
  // chained consumers: a chain's head answers for the whole chain.
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
  // Enumerates the downstream queues this node produces into, through its
  // chained consumers (the scheduler maps them to producer tasks for
  // RoomFreed wiring).
  void ForEachOutputQueue(const std::function<void(StreamQueue*)>& fn);
  // An abort reached this node (a chained node has no queue to carry it),
  // or a queue it or its chain produces into.
  bool ChainAborted() const {
    if (abort_requested_.load(std::memory_order_relaxed)) return true;
    for (const Endpoint& e : outputs_) {
      if (e.Aborted()) return true;
    }
    return false;
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
  // Throws std::logic_error on a chained node, which has no queue.
  Endpoint AddInput();
  // Null for a chained node.
  StreamQueue* input_queue() { return in_queue_.get(); }
  size_t num_inputs() const { return num_ports_; }
  // Fed by a chained edge: stepped inside its producer's Step, never a task
  // of its own.
  bool chained() const { return chained_; }

  void AddOutput(Endpoint e) { outputs_.push_back(std::move(e)); }
  size_t num_outputs() const { return outputs_.size(); }

  // Aborts the input queue (and, in overrides, whatever else a node blocks
  // on) so the node's Step unwinds, and every chained consumer with it; the
  // failure path of Topology::AbortAll.
  virtual void AbortQueues();

  // Tuples processed by this node (inputs for operators, emissions for
  // sources); read by harnesses after the run. A merging node counts a
  // tuple when its merge releases it, not when it arrives.
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

  // What DrainInput's `consume` reports for one input batch.
  enum class BatchVerdict : uint8_t {
    kNext,  // consumed: go on with the next batch
    kKeep,  // stopped partway after a spill: hand it back next Step
    kEnd,   // end of stream: the final flush was emitted
  };

  // The input half of a Step under the back-pressure rule: feeds the rest of
  // the previous burst, then batches popped within the `max_batches` budget,
  // to `consume` in stream order, and stops at the first batch boundary
  // after an output spilled.
  template <typename Consume>
  StepResult DrainInput(size_t max_batches, Consume&& consume) {
    size_t remaining = max_batches;
    for (;;) {
      while (burst_next_ < burst_.size()) {
        switch (consume(burst_[burst_next_])) {
          case BatchVerdict::kKeep:
            return StepResult::kReady;
          case BatchVerdict::kEnd:
            return StepResult::kDone;
          case BatchVerdict::kNext:
            break;
        }
        ++burst_next_;
        if (HasSpills()) return StepResult::kReady;
      }
      if (remaining == 0) return StepResult::kReady;
      // Poll until the queue reports empty/aborted or the budget runs out. A
      // quantum must never park after an underfull drain without
      // re-polling: an abort that lands between two drains leaves a residue
      // whose one DataReady signal was already consumed, and the kAborted
      // verdict only shows once the residue is gone (the abort-then-drain
      // contract).
      burst_.clear();
      burst_next_ = 0;
      switch (in_queue_->PopSome(burst_, remaining)) {
        case PopStatus::kAborted:
          return StepResult::kDone;
        case PopStatus::kEmpty:
          // Parking is safe: any push or abort after this observation fires
          // DataReady at the task.
          return StepResult::kIdle;
        case PopStatus::kPopped:
          break;
      }
      remaining -= std::min(remaining, burst_.size());
    }
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
  // The last output takes `t` itself: a caller that moves its handle in
  // pays no reference-count round trip on a one-output node.
  bool EmitTupleAll(TuplePtr t);
  // Monotonic watermark broadcast: non-increasing or infinite values are
  // swallowed (flush carries the end-of-stream meaning).
  bool ForwardWatermark(int64_t wm);
  void EmitFlushAll();
  // Forwards a chunk to every output, applying the same watermark
  // de-duplication as ForwardWatermark. With a single output the chunk moves
  // wholesale; the flush flag must be left to ProcessBatch (see OnBatch).
  bool ForwardBatchAll(StreamBatch&& batch);

  // One writer at a time (the thread stepping the node, or its chain's
  // head), so a plain store suffices; readers load relaxed.
  void CountProcessed(uint64_t n = 1) {
    tuples_processed_.store(
        tuples_processed_.load(std::memory_order_relaxed) + n,
        std::memory_order_relaxed);
  }

  // Makes this node the consumer of one chained edge (SingleInputNode's
  // AddChainedInput); throws std::logic_error if it already has an input.
  void MarkChained();

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
  bool chained_ = false;
  std::atomic<bool> abort_requested_{false};
  // The popped input burst and the next batch to consume; a Step that ends
  // on a spill leaves the rest here.
  std::vector<StreamBatch> burst_;
  size_t burst_next_ = 0;
};

// Base for one-input operators (Map, Filter, Multiplex, Aggregate, Sink, SU,
// Send). The input stream is sorted, so batches are handled as they arrive.
class SingleInputNode : public Node {
 public:
  using Node::Node;

  StepResult Step(size_t max_batches) override;

  // Whether the lowering runs this operator inside its producer's task
  // (Topology::Chain): a cheap per-batch operator that never keeps a batch,
  // never blocks and needs no thread of its own. Stateful and blocking
  // operators stay tasks, so they keep their own core.
  virtual bool Chainable() const { return false; }

  // Wiring (used by Topology::Chain): the producer-side handle of this
  // node's one chained input. Throws std::logic_error if the node already
  // has an input or is not Chainable.
  Endpoint AddChainedInput(size_t batch_size);

 protected:
  virtual void OnTuple(TuplePtr t) = 0;
  // Default: forward. Stateful operators override to fire windows first.
  virtual void OnWatermark(int64_t wm) { ForwardWatermark(wm); }
  // Called once before the final flush is forwarded.
  virtual void OnFlush() {}
  // Whole-batch hook: the default dispatches to OnTuple/OnWatermark in
  // stream order. Operators that can exploit the chunk (Send's
  // batch-at-a-time serialization, Filter's in-place chunk filtering)
  // override this; the flush marker is owned by ProcessBatch — it is cleared
  // before this call and never visible here.
  virtual void OnBatch(StreamBatch& batch) {
    for (TuplePtr& t : batch.tuples) OnTuple(std::move(t));
    if (batch.has_watermark()) OnWatermark(batch.watermark);
  }

  // Called from OnBatch that stopped partway after a spill and left the
  // unprocessed rest in its batch: the next Step hands that rest to OnBatch
  // again, once the spills drained (and counts none of it a second time).
  // A Chainable operator never keeps a batch.
  void KeepBatch() { keep_batch_ = true; }

 private:
  friend class Endpoint;

  // One input batch, whether popped by Step or pushed by a chained edge:
  // counts its tuples, runs OnBatch and handles the flush.
  BatchVerdict ProcessBatch(StreamBatch& batch);

  bool keep_batch_ = false;
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

  // The merge state lives in members so the node runs as a resumable
  // sequence of Steps; initialized once.
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
  int64_t last_merged_wm_ = kWatermarkMin;
};

// --- the chained half of Endpoint --------------------------------------------

inline bool Endpoint::HasSpill() const {
  if (chained_ != nullptr) return chained_->HasSpills();
  return !spill_.empty();
}

inline bool Endpoint::DrainSpill() {
  if (chained_ != nullptr) return chained_->DrainSpills();
  while (!spill_.empty()) {
    switch (Offer(spill_.front())) {
      case PushStatus::kOk:
        spill_.pop_front();
        break;
      case PushStatus::kAborted:
        spill_.clear();
        return true;
      case PushStatus::kFull:
        return false;
    }
  }
  return true;
}

inline bool Endpoint::Aborted() const {
  if (chained_ != nullptr) return chained_->ChainAborted();
  return queue_->aborted();
}

inline bool Endpoint::Deliver(StreamBatch batch) {
  [[maybe_unused]] const SingleInputNode::BatchVerdict verdict =
      chained_->ProcessBatch(batch);
  assert(verdict != SingleInputNode::BatchVerdict::kKeep);
  return !chained_->ChainAborted();
}

}  // namespace genealog

#endif  // GENEALOG_SPE_NODE_H_
