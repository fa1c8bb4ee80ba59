// Standard stateless operators (§2): Map, Filter, Multiplex, Union.
//
// Per Definition 3.1 and §4.1:
//  * Filter and Union *forward* tuples — no new objects, no instrumentation;
//  * Map and Multiplex *create* tuples — the provenance policy links each
//    output to its contributing input via U1 (GL) or annotation copy (BL).
#ifndef GENEALOG_SPE_STATELESS_H_
#define GENEALOG_SPE_STATELESS_H_

#include <cassert>
#include <functional>
#include <utility>
#include <vector>

#include "core/type_registry.h"
#include "spe/node.h"

namespace genealog {

// Collects the outputs a Map function produces for one input tuple.
template <typename Out>
class MapCollector {
 public:
  void Emit(IntrusivePtr<Out> t) { outs_.push_back(std::move(t)); }

 private:
  template <typename In_, typename Out_>
  friend class MapNode;
  std::vector<IntrusivePtr<Out>> outs_;
};

// Map: one or more output tuples per input tuple, created by `fn`. The node
// enforces the timestamp contract (out.ts = in.ts) and applies provenance
// instrumentation; `fn` only builds payloads.
template <typename In, typename Out>
class MapNode final : public SingleInputNode {
 public:
  using Fn = std::function<void(const In&, MapCollector<Out>&)>;

  MapNode(std::string name, Fn fn)
      : SingleInputNode(std::move(name)), fn_(std::move(fn)) {}

  bool Chainable() const override { return true; }

 protected:
  // Whole-chunk path: outputs are created straight into one outgoing chunk
  // (allocated from the tuple pool) and handed over in a single
  // ForwardBatchAll, instead of trickling through per-tuple endpoint pushes.
  void OnBatch(StreamBatch& batch) override {
    StreamBatch out_chunk;
    out_chunk.watermark = batch.watermark;
    for (TuplePtr& t : batch.tuples) {
      collector_.outs_.clear();
      fn_(static_cast<const In&>(*t), collector_);
      for (auto& out : collector_.outs_) {
        out->ts = t->ts;
        out->stimulus = t->stimulus;
        out->id = NextTupleId();
        InstrumentUnary(mode(), *out, TupleKind::kMap, *t);
        out_chunk.tuples.push_back(std::move(out));
      }
    }
    collector_.outs_.clear();
    ForwardBatchAll(std::move(out_chunk));
  }

  void OnTuple(TuplePtr t) override {
    const auto& in = static_cast<const In&>(*t);
    collector_.outs_.clear();
    fn_(in, collector_);
    for (auto& out : collector_.outs_) {
      out->ts = t->ts;
      out->stimulus = t->stimulus;
      out->id = NextTupleId();
      InstrumentUnary(mode(), *out, TupleKind::kMap, *t);
      if (!EmitTupleAll(out)) return;
    }
    collector_.outs_.clear();
  }

 private:
  Fn fn_;
  MapCollector<Out> collector_;
};

// Filter: forwards tuples satisfying the condition; drops the rest. Forwarded
// tuples are the same objects (type (i) operator in Def. 3.1). As a pure
// forwarding operator it keeps the chunk structure of the batched data
// plane: each input batch is filtered in place and passed on whole, rather
// than re-accumulated tuple by tuple.
template <typename T>
class FilterNode final : public SingleInputNode {
 public:
  using Predicate = std::function<bool(const T&)>;

  FilterNode(std::string name, Predicate pred)
      : SingleInputNode(std::move(name)), pred_(std::move(pred)) {}

  bool Chainable() const override { return true; }

 protected:
  void OnBatch(StreamBatch& batch) override {
    size_t kept = 0;
    for (size_t i = 0; i < batch.tuples.size(); ++i) {
      if (pred_(static_cast<const T&>(*batch.tuples[i]))) {
        if (kept != i) batch.tuples[kept] = std::move(batch.tuples[i]);
        ++kept;
      }
    }
    batch.tuples.truncate(kept);
    ForwardBatchAll(std::move(batch));
  }

  void OnTuple(TuplePtr t) override {
    if (pred_(static_cast<const T&>(*t))) EmitTupleAll(std::move(t));
  }

 private:
  Predicate pred_;
};

// Multiplex: copies each input tuple to every connected output stream. Each
// copy is a new object (type (ii) operator) pointing back to the input via
// U1. Copies keep the input's id: they are copies of the same logical tuple,
// which is what lets the composed SU (Figure 5B) carry the delivering
// stream's ids on its unfolded stream.
class MultiplexNode final : public SingleInputNode {
 public:
  explicit MultiplexNode(std::string name) : SingleInputNode(std::move(name)) {}

  bool Chainable() const override { return true; }

 protected:
  // Whole-chunk path: each output gets one chunk of clones built in place
  // (the clones come from the tuple pool, which in steady state hands back
  // the blocks freed by the previous chunk's reclamation). The watermark is
  // broadcast once, after the chunks, preserving batch order.
  void OnBatch(StreamBatch& batch) override {
    for (size_t i = 0; i < num_outputs(); ++i) {
      StreamBatch out_chunk;
      for (const TuplePtr& t : batch.tuples) {
        TuplePtr copy = clone_cache_.Clone(*t);
        copy->id = t->id;
        InstrumentUnary(mode(), *copy, TupleKind::kMultiplex, *t);
        out_chunk.tuples.push_back(std::move(copy));
      }
      if (!EmitBatchTo(i, std::move(out_chunk))) return;
    }
    if (batch.has_watermark()) ForwardWatermark(batch.watermark);
  }

  void OnTuple(TuplePtr t) override {
    for (size_t i = 0; i < num_outputs(); ++i) {
      TuplePtr copy = clone_cache_.Clone(*t);
      copy->id = t->id;
      InstrumentUnary(mode(), *copy, TupleKind::kMultiplex, *t);
      if (!EmitTupleTo(i, std::move(copy))) return;
    }
  }

 private:
  // Same-class clone fast path: one stream carries runs of one concrete
  // type, so the cached direct cloner replaces per-copy virtual dispatch.
  CloneCache clone_cache_;
};

// Union: merges multiple timestamp-sorted input streams into one sorted
// output stream, deterministically (§2). Forwards tuples unchanged.
class UnionNode final : public MergingNode {
 public:
  explicit UnionNode(std::string name) : MergingNode(std::move(name)) {}

 protected:
  void OnMergedTuple(size_t /*port*/, TuplePtr t) override {
    EmitTupleAll(std::move(t));
  }
};

// Router: forwards each input tuple to the output streams whose condition it
// satisfies. §2 describes it as the semantic combination of a Multiplex and
// one Filter per output stream, and notes that GeneaLog's guarantees hold
// for such combinations of standard operators — which the router tests
// verify by comparing against the literal composition. Like Multiplex it
// creates copies (instrumented with U1 -> input, id preserved); outputs whose
// condition fails still receive the watermark flow.
template <typename T>
class RouterNode final : public SingleInputNode {
 public:
  using Condition = std::function<bool(const T&)>;

  RouterNode(std::string name, std::vector<Condition> conditions)
      : SingleInputNode(std::move(name)), conditions_(std::move(conditions)) {}

  bool Chainable() const override { return true; }

 protected:
  void OnTuple(TuplePtr t) override {
    assert(conditions_.size() == num_outputs());
    for (size_t i = 0; i < num_outputs(); ++i) {
      if (!conditions_[i](static_cast<const T&>(*t))) continue;
      TuplePtr copy = clone_cache_.Clone(*t);
      copy->id = t->id;
      InstrumentUnary(mode(), *copy, TupleKind::kMultiplex, *t);
      if (!EmitTupleTo(i, std::move(copy))) return;
    }
  }

 private:
  std::vector<Condition> conditions_;
  CloneCache clone_cache_;
};

}  // namespace genealog

#endif  // GENEALOG_SPE_STATELESS_H_
