// Key-partitioned operator parallelism.
//
// Challenge C3 (§3) argues that implementing provenance with standard
// operators lets it reuse "existing distribution and parallelization
// techniques" — the classic technique being key partitioning: a partitioner
// routes each tuple to one of N operator instances by key hash, and a
// deterministic merge recombines the N sorted outputs. Because every tuple is
// consumed by exactly one Aggregate instance, the N-chain safety argument
// (one stateful consumer per tuple object) is preserved, so GeneaLog's
// instrumentation works unchanged inside each partition.
//
// Merge determinism is stronger than run-invariance here: the merged stream
// is *emission-order-identical* to what a single-instance Aggregate would
// produce. A single instance fires simultaneous windows in (ts, group key)
// order (the firing heap's tie-break, spe/aggregate.h); a plain (ts, port)
// union would replace that with (ts, partition) order. KeyedMergeNode
// restores the single-instance order: each instance records an order token
// (the group key) against the output tuple it is about to emit, and the
// merge re-sorts every watermark-complete slice by (ts, token) before
// forwarding. The fluent builder (spe/dataflow.h `.KeyBy(...).Parallel(n)`)
// lowers onto exactly this stage; the parallel sweeps in the determinism
// suites pin the equivalence.
#ifndef GENEALOG_SPE_PARALLEL_H_
#define GENEALOG_SPE_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spe/aggregate.h"
#include "spe/node.h"
#include "spe/stateless.h"
#include "spe/topology.h"

namespace genealog {

// Routes each input tuple to exactly one output stream by key hash. Like
// Filter, it *forwards* (no copies, no instrumentation): it is semantically a
// Router whose conditions partition the key space. The hash functor is a
// template parameter so the fluent lowering can route without a
// std::function indirection per tuple; the std::function default is for
// callers that build the node directly (the node-level tests).
template <typename T, typename HashFn = std::function<uint64_t(const T&)>>
class KeyPartitionNode final : public SingleInputNode {
 public:
  KeyPartitionNode(std::string name, HashFn hash)
      : SingleInputNode(std::move(name)), hash_(std::move(hash)) {}

  // The routing contract the merge determinism (and the partition-assignment
  // test) rests on: SplitMix64-finalized hash, modulo the shard count.
  static size_t PartitionOf(uint64_t hash, size_t shards) {
    return static_cast<size_t>(Mix(hash) % shards);
  }

 protected:
  // Whole-chunk path: one outgoing chunk per shard, routed in a single pass
  // with the shard count hoisted out of the loop; the watermark is broadcast
  // once, after the chunks (the Multiplex pattern).
  void OnBatch(StreamBatch& batch) override {
    const size_t shards = num_outputs();
    if (shards == 1) {
      ForwardBatchAll(std::move(batch));
      return;
    }
    if (chunks_.size() < shards) chunks_.resize(shards);
    for (TuplePtr& t : batch.tuples) {
      const size_t out = PartitionOf(hash_(static_cast<const T&>(*t)), shards);
      chunks_[out].tuples.push_back(std::move(t));
    }
    for (size_t i = 0; i < shards; ++i) {
      if (chunks_[i].tuples.empty()) continue;
      if (!EmitBatchTo(i, std::move(chunks_[i]))) return;
      chunks_[i] = StreamBatch{};
    }
    if (batch.has_watermark()) ForwardWatermark(batch.watermark);
  }

  void OnTuple(TuplePtr t) override {
    const size_t out =
        PartitionOf(hash_(static_cast<const T&>(*t)), num_outputs());
    EmitTupleTo(out, std::move(t));
  }

 private:
  // SplitMix64 finalizer: decorrelates consecutive key values.
  static uint64_t Mix(uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  HashFn hash_;
  std::vector<StreamBatch> chunks_;  // reused per-shard scratch chunks
};

// Deterministic merge of N partitioned-Aggregate outputs that reproduces the
// single-instance emission order. Producers call RecordOrderToken(tuple,
// group key) for each output tuple before emitting it (the partitioned
// combiner wrapper does this); the merge buffers each watermark-complete
// slice — MergingNode delivers every tuple with ts below the merged
// watermark before OnMergedWatermark fires — and releases it sorted by
// (ts, token). Aggregate output timestamps are a monotone function of the
// window, so (ts, token) pairs are unique and the sort is total; tuples
// whose producer recorded no token (e.g. a shard count of one feeding the
// merge through forwarding machinery) keep a zero token and (ts, port)
// arrival order.
class KeyedMergeNode final : public MergingNode {
 public:
  explicit KeyedMergeNode(std::string name) : MergingNode(std::move(name)) {}

  // Called by the producing instance's thread, before the tuple is emitted
  // toward this node. The queue handoff sequences the map insert before the
  // merge-side lookup.
  void RecordOrderToken(const Tuple* t, int64_t token) {
    std::lock_guard<std::mutex> lock(mu_);
    tokens_.emplace(t, token);
  }

 protected:
  void OnMergedTuple(size_t /*port*/, TuplePtr t) override {
    int64_t token = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = tokens_.find(t.get());
      if (it != tokens_.end()) {
        token = it->second;
        tokens_.erase(it);
      }
    }
    buffer_.push_back(Pending{std::move(t), token});
  }

  void OnMergedWatermark(int64_t wm) override {
    ReleaseBuffered();
    ForwardWatermark(wm);  // swallows the final kWatermarkMax drain
  }

  void OnAllFlushed() override { ReleaseBuffered(); }

 private:
  struct Pending {
    TuplePtr t;
    int64_t token;
  };

  void ReleaseBuffered() {
    std::stable_sort(buffer_.begin(), buffer_.end(),
                     [](const Pending& a, const Pending& b) {
                       if (a.t->ts != b.t->ts) return a.t->ts < b.t->ts;
                       return a.token < b.token;
                     });
    for (Pending& p : buffer_) {
      if (!EmitTupleAll(p.t)) break;
    }
    buffer_.clear();
  }

  std::mutex mu_;
  std::unordered_map<const Tuple*, int64_t> tokens_;
  std::vector<Pending> buffer_;
};

// Wraps an aggregate combiner so each output tuple's group key is recorded
// as its merge order token. AggregateNode emits the exact object the
// combiner returns (spe/aggregate.h FireOne), which is what makes the
// pointer-keyed handshake sound. The key must be an integral type that
// orders identically as an int64_t token.
template <typename In, typename Out, typename Key>
AggregateCombiner<In, Out, Key> TokenRecordingCombiner(
    AggregateCombiner<In, Out, Key> combiner, KeyedMergeNode* merge) {
  static_assert(std::is_integral_v<Key> &&
                    (std::is_signed_v<Key> || sizeof(Key) < sizeof(int64_t)),
                "parallel aggregation orders merged firings by group key: the "
                "key must be an integral type embeddable in int64_t");
  return [combiner = std::move(combiner),
          merge](const WindowView<In, Key>& w) -> IntrusivePtr<Out> {
    IntrusivePtr<Out> out = combiner(w);
    if (out != nullptr) {
      merge->RecordOrderToken(out.get(), static_cast<int64_t>(w.key));
    }
    return out;
  };
}

}  // namespace genealog

#endif  // GENEALOG_SPE_PARALLEL_H_
