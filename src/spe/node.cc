#include "spe/node.h"

#include <atomic>
#include <functional>
#include <stdexcept>
#include <utility>

namespace genealog {
namespace {

std::atomic<uint64_t> g_next_node_uid{1};

}  // namespace

Node::Node(std::string name)
    : name_(std::move(name)),
      uid_(g_next_node_uid.fetch_add(1, std::memory_order_relaxed)) {
  // The counter only grows, so once exhausted every later construction
  // fails too: no node ever gets an id range another node owns.
  if (uid_ > kMaxNodeUid) {
    throw std::overflow_error("node uid space exhausted: '" + name_ +
                              "' would be node " + std::to_string(uid_) +
                              ", tuple ids hold " +
                              std::to_string(kMaxNodeUid));
  }
}

uint64_t Node::ExchangeNextUidForTesting(uint64_t next) {
  return g_next_node_uid.exchange(next, std::memory_order_relaxed);
}

void Node::ThrowSequenceOverflow() const {
  throw std::overflow_error("tuple id sequence exhausted at node '" + name_ +
                            "' (uid " + std::to_string(uid_) + "): " +
                            std::to_string(kTupleSeqMask + 1) +
                            " ids minted");
}

Endpoint Node::AddInput() {
  if (chained_) {
    throw std::logic_error("node '" + name_ +
                           "' is fed by a chained edge and has no queue for "
                           "a second input");
  }
  if (in_queue_ == nullptr) {
    in_queue_ = std::make_unique<StreamQueue>(kDefaultQueueCapacity);
  }
  return Endpoint{in_queue_.get(), static_cast<uint16_t>(num_ports_++)};
}

void Node::MarkChained() {
  if (num_ports_ != 0) {
    throw std::logic_error("node '" + name_ +
                           "' already has an input; a chained edge must be "
                           "its only one");
  }
  chained_ = true;
  num_ports_ = 1;
}

void Node::AbortQueues() {
  abort_requested_.store(true, std::memory_order_relaxed);
  if (in_queue_ != nullptr) in_queue_->Abort();
  for (Endpoint& e : outputs_) {
    if (e.chained() != nullptr) e.chained()->AbortQueues();
  }
}

void Node::ForEachOutputQueue(const std::function<void(StreamQueue*)>& fn) {
  for (Endpoint& e : outputs_) {
    if (e.chained() != nullptr) {
      e.chained()->ForEachOutputQueue(fn);
    } else {
      fn(e.queue());
    }
  }
}

bool Node::EmitTupleAll(TuplePtr t) {
  const size_t n = outputs_.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    if (!outputs_[i].PushTuple(t)) return false;
  }
  return n == 0 || outputs_[n - 1].PushTuple(std::move(t));
}

bool Node::ForwardWatermark(int64_t wm) {
  if (wm <= last_forwarded_wm_ || wm == kWatermarkMax) return true;
  last_forwarded_wm_ = wm;
  for (Endpoint& e : outputs_) {
    if (!e.PushWatermark(wm)) return false;
  }
  return true;
}

void Node::EmitFlushAll() {
  for (Endpoint& e : outputs_) {
    e.PushFlush();
  }
}

bool Node::ForwardBatchAll(StreamBatch&& batch) {
  if (batch.has_watermark()) {
    if (batch.watermark <= last_forwarded_wm_ ||
        batch.watermark == kWatermarkMax) {
      batch.watermark = kNoWatermark;
    } else {
      last_forwarded_wm_ = batch.watermark;
    }
  }
  if (batch.tuples.empty() && !batch.has_watermark()) return true;
  if (outputs_.size() == 1) {
    return outputs_[0].ForwardBatch(std::move(batch));
  }
  for (Endpoint& e : outputs_) {
    for (const TuplePtr& t : batch.tuples) {
      if (!e.PushTuple(t)) return false;
    }
    if (batch.has_watermark() && !e.PushWatermark(batch.watermark)) {
      return false;
    }
  }
  return true;
}

Endpoint SingleInputNode::AddChainedInput(size_t batch_size) {
  if (!Chainable()) {
    throw std::logic_error("node '" + name() +
                           "' cannot be chained into its producer");
  }
  MarkChained();
  return Endpoint{this, batch_size};
}

Node::BatchVerdict SingleInputNode::ProcessBatch(StreamBatch& batch) {
  // A batch counts when OnBatch first sees it, not when it resumes.
  if (!std::exchange(keep_batch_, false) && !batch.tuples.empty()) {
    CountProcessed(batch.tuples.size());
  }
  const bool flush = batch.flush;
  batch.flush = false;  // this method owns end-of-stream, OnBatch never sees it
  OnBatch(batch);
  if (keep_batch_) {
    batch.flush = flush;
    return BatchVerdict::kKeep;
  }
  if (!flush) return BatchVerdict::kNext;
  OnFlush();
  EmitFlushAll();
  return BatchVerdict::kEnd;
}

StepResult SingleInputNode::Step(size_t max_batches) {
  auto consume = [this](StreamBatch& batch) { return ProcessBatch(batch); };
  return DrainInput(max_batches, consume);
}

int64_t MergingNode::MinWatermark() const {
  int64_t min_wm = kWatermarkMax;
  for (const PortState& p : ports_) {
    if (!p.flushed && p.wm < min_wm) min_wm = p.wm;
  }
  return min_wm;
}

void MergingNode::ReleaseReady() {
  const int64_t min_wm = MinWatermark();
  for (;;) {
    size_t best = ports_.size();
    int64_t best_ts = 0;
    for (size_t i = 0; i < ports_.size(); ++i) {
      if (ports_[i].buffer.empty()) continue;
      const int64_t head_ts = ports_[i].buffer.front()->ts;
      if (head_ts >= min_wm) continue;
      if (best == ports_.size() || head_ts < best_ts) {
        best = i;
        best_ts = head_ts;
      }
    }
    if (best == ports_.size()) break;
    TuplePtr t = std::move(ports_[best].buffer.front());
    ports_[best].buffer.pop_front();
    CountProcessed();
    OnMergedTuple(best, std::move(t));
  }
  if (min_wm > last_merged_wm_) {
    last_merged_wm_ = min_wm;
    OnMergedWatermark(min_wm);
  }
}

void MergingNode::EnsureMergeState() {
  if (merge_state_ready_) return;
  merge_state_ready_ = true;
  ports_.resize(num_inputs());
}

void MergingNode::ConsumeBatch(StreamBatch& batch) {
  PortState& port = ports_[batch.port];
  for (TuplePtr& t : batch.tuples) {
    // A sorted stream implies future ts on this port are >= this ts, so
    // the tuple itself raises the port watermark to its own ts.
    const int64_t ts = t->ts;
    port.buffer.push_back(std::move(t));
    if (ts > port.wm) port.wm = ts;
  }
  if (batch.watermark > port.wm) port.wm = batch.watermark;
  if (batch.flush) {
    port.flushed = true;
    ++flushed_ports_;
  }
  // Once per batch (not per tuple): the release order is a pure function
  // of the buffered data, so chunked releases are correct — and at batch
  // size 1 this is exactly the unbatched engine's per-item cadence of
  // merged-watermark forwarding.
  ReleaseReady();
}

StepResult MergingNode::Step(size_t max_batches) {
  EnsureMergeState();
  if (flushed_ports_ >= ports_.size()) {
    // No input ports: nothing to merge (and no queue to pop).
    OnAllFlushed();
    EmitFlushAll();
    return StepResult::kDone;
  }
  return DrainInput(max_batches, [this](StreamBatch& batch) {
    ConsumeBatch(batch);
    if (flushed_ports_ < ports_.size()) return BatchVerdict::kNext;
    OnAllFlushed();
    EmitFlushAll();
    return BatchVerdict::kEnd;
  });
}

}  // namespace genealog
