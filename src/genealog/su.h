// SU — the single-stream unfolder (Definition 5.2, Figure 5).
//
// One input SI, two outputs: SO (output 0, an exact copy of SI) and U
// (output 1, the unfolded stream of SI). Per Theorem 5.3, adding an SU before
// each Sink provides intra-process fine-grained provenance through U.
//
// The unfold step itself — walk a delivering tuple's contribution graph
// (Listing 1), emit one unfolded tuple per origin (Def. 5.1) — is written
// once, in Unfolder, which also owns the step's traversal samples (Figure
// 14). Every unfold site holds one Unfolder and is its only writer thread.
//
// Two SU implementations are provided:
//  * SuNode — the efficient fused operator (the paper notes SU's semantics
//    can be assigned to one thread / a single user-defined operator);
//  * BuildComposedSu — the literal Figure 5B construction from standard
//    instrumented operators (Multiplex + Map), demonstrating challenge C3.
// Equivalence of the two is covered by tests and an ablation bench.
//
// SuNode is batch-aware: one activation processes a whole StreamBatch,
// forwarding the SO copy as a single chunk and building every unfolded tuple
// of the batch straight into one outgoing U chunk (EmitBatchTo), so per-tuple
// queue handovers disappear at batch sizes > 1.
//
// An SU before an instance-crossing Send runs in pull mode instead
// (genealog/pull.h): constructed with a RetentionSpec it has the SO output
// only, retains each delivering tuple in a RetentionIndex and never unfolds;
// the edge's UServeNode unfolds just the tuples the provenance instance asks
// for through this SU's Unfolder, so the stats accessors cover both modes.
#ifndef GENEALOG_GENEALOG_SU_H_
#define GENEALOG_GENEALOG_SU_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "genealog/retention.h"
#include "genealog/traversal.h"
#include "genealog/unfolded.h"
#include "spe/node.h"
#include "spe/stateless.h"
#include "spe/topology.h"

namespace genealog {

// The unfold step of one SU. Not thread-safe: exactly one thread unfolds
// through an Unfolder (the push SU's, the composed Map's, or the pull SU's
// serving node), and its stats are read once that thread has finished.
class Unfolder {
 public:
  // Walks `derived`'s contribution graph, records one traversal sample, and
  // calls `emit(IntrusivePtr<UnfoldedTuple>)` once per origin, in BFS
  // discovery order. The unfolded tuples carry no id; the caller stamps it.
  template <typename Emit>
  void Unfold(const TuplePtr& derived, Emit&& emit) {
    for (Tuple* o : Traverse(derived)) emit(MakeUnfolded(derived, o));
  }

  // Per-traversal wall time in ms, and origins found per traversal.
  const SampleStats& traversal_ms() const { return traversal_ms_; }
  const SampleStats& graph_size() const { return graph_size_; }

 private:
  // The timed FindProvenance: the per-sink-tuple cost Figure 14 studies.
  std::span<Tuple* const> Traverse(const TuplePtr& derived);
  static IntrusivePtr<UnfoldedTuple> MakeUnfolded(const TuplePtr& derived,
                                                  Tuple* origin);

  TraversalScratch scratch_;
  std::vector<Tuple*> origins_;
  SampleStats traversal_ms_;
  SampleStats graph_size_;
};

class SuNode final : public SingleInputNode {
 public:
  explicit SuNode(std::string name) : SingleInputNode(std::move(name)) {}
  // Pull mode: retains instead of unfolding.
  SuNode(std::string name, RetentionSpec retention);

  // A full retention index blocks the SU (backpressure), which a pool task
  // must never do; a pull-mode SU keeps a dedicated thread under the pool.
  bool NeedsDedicatedThread() const override { return retention_ != nullptr; }
  void AbortQueues() override;

  // Null for a push-mode SU.
  RetentionIndex* retention() const { return retention_.get(); }
  // The push SU unfolds through it on the node's thread; a pull-mode SU's
  // serving node on its own.
  Unfolder& unfolder() { return unfolder_; }

  // --- contribution-graph traversal cost (Figure 14) -----------------------
  //
  // Read without a lock from the Unfolder's one writer: exact once
  // Runner::Join or BuiltDataflow::Run has returned, and not for mid-run
  // reads.
  double mean_traversal_ms() const;
  uint64_t traversal_count() const;
  double traversal_percentile_ms(double pct) const;
  double mean_graph_size() const;

 protected:
  void OnTuple(TuplePtr t) override;
  void OnBatch(StreamBatch& batch) override;

 private:
  void RetainBatch(StreamBatch& batch);

  Unfolder unfolder_;
  std::unique_ptr<RetentionIndex> retention_;  // pull mode only
};

// The Figure 5B construction: SI -> Multiplex -> {SO, SM}, SM -> Map -> U.
// Returns the entry node (connect the delivering stream to it), the node
// whose output 0 is SO, and the node producing U.
struct ComposedSu {
  Node* entry;    // receives SI
  Node* so_node;  // its (only) output is SO
  Node* u_node;   // its (only) output is U
};
ComposedSu BuildComposedSu(Topology& topology, const std::string& name);

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_SU_H_
