// SU — the single-stream unfolder (Definition 5.2, Figure 5).
//
// One input SI, two outputs: SO (output 0, an exact copy of SI) and U
// (output 1, the unfolded stream of SI). Per Theorem 5.3, adding an SU before
// each Sink provides intra-process fine-grained provenance through U.
//
// Two implementations are provided:
//  * SuNode — the efficient fused operator (the paper notes SU's semantics
//    can be assigned to one thread / a single user-defined operator);
//  * BuildComposedSu — the literal Figure 5B construction from standard
//    instrumented operators (Multiplex + Map), demonstrating challenge C3.
// Equivalence of the two is covered by tests and an ablation bench.
//
// SuNode is batch-aware: one activation processes a whole StreamBatch,
// forwarding the SO copy as a single chunk, reusing the traversal scratch and
// origin buffer across the batch, and building every unfolded tuple of the
// batch straight into one outgoing U chunk (EmitBatchTo), so per-tuple queue
// handovers disappear at batch sizes > 1.
//
// An SU before an instance-crossing Send runs in pull mode instead
// (genealog/pull.h): constructed with a RetentionSpec it has the SO output
// only, and retains each delivering tuple in a RetentionIndex; the edge's
// UServeNode unfolds just the tuples the provenance instance asks for and
// records their traversal samples here, so the accessors below cover both
// modes.
#ifndef GENEALOG_GENEALOG_SU_H_
#define GENEALOG_GENEALOG_SU_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/wall_clock.h"
#include "genealog/retention.h"
#include "genealog/traversal.h"
#include "genealog/unfolded.h"
#include "spe/node.h"
#include "spe/stateless.h"
#include "spe/topology.h"

namespace genealog {

class SuNode final : public SingleInputNode {
 public:
  explicit SuNode(std::string name) : SingleInputNode(std::move(name)) {
    pending_samples_.reserve(kPublishEvery);
  }
  // Pull mode: retains instead of unfolding.
  SuNode(std::string name, RetentionSpec retention);

  // A full retention index blocks the SU (backpressure), which a pool task
  // must never do; a pull-mode SU keeps a dedicated thread under the pool.
  bool NeedsDedicatedThread() const override { return retention_ != nullptr; }
  void AbortQueues() override;

  // --- pull mode ------------------------------------------------------------
  // Null for a push-mode SU.
  RetentionIndex* retention() const { return retention_.get(); }
  // Delivering tuples retained, then requested by the provenance instance
  // or evicted by its frontier without a request. Exact after
  // Runner::Join, where retained = requested + evicted_unrequested; all 0
  // in push mode.
  uint64_t retained_count() const;
  uint64_t requested_count() const;
  uint64_t evicted_unrequested_count() const;
  // Folds traversal samples (ms, graph size) taken on another thread — the
  // serving node's unfolds — into the stats below.
  void PublishSamples(std::span<const std::pair<double, double>> samples);

  // --- contribution-graph traversal cost (Figure 14) -----------------------
  //
  // Merge-on-read semantics: the hot path appends each traversal's sample to
  // a buffer confined to the node's processing thread — no lock, no shared
  // write — and publishes the buffer into the mutex-protected stats every
  // kPublishEvery samples and at flush. The accessors below merge what has
  // been published: once the node has flushed (RunToCompletion / Runner::Join
  // provide the happens-before), they are exact and account for every tuple;
  // called mid-run they are safe but may trail the hot path by up to
  // kPublishEvery samples. Samples are published in processing order, so the
  // resulting statistics are identical to the former per-tuple locked Adds.
  double mean_traversal_ms() const;
  uint64_t traversal_count() const;
  double traversal_percentile_ms(double pct) const;
  double mean_graph_size() const;

 protected:
  void OnTuple(TuplePtr t) override;
  void OnBatch(StreamBatch& batch) override;
  void OnFlush() override;

 private:
  static constexpr size_t kPublishEvery = 256;

  // Traverses `t`, records the traversal sample, and appends one unfolded
  // tuple per origin to `u_chunk`.
  void UnfoldOne(const TuplePtr& t, StreamBatch& u_chunk);
  void PublishStats();
  void RetainBatch(StreamBatch& batch);

  // --- node-thread state (never touched by readers) ------------------------
  TraversalScratch scratch_;
  std::vector<Tuple*> result_;
  std::vector<std::pair<double, double>> pending_samples_;  // (ms, graph size)

  // --- published stats (any thread, under stats_mu_) ------------------------
  mutable std::mutex stats_mu_;
  SampleStats traversal_ms_;
  SampleStats graph_size_;

  std::unique_ptr<RetentionIndex> retention_;  // pull mode only
};

// One tuple of the unfolded stream (Def. 5.1): `derived` paired with the
// originating tuple `origin`. The id is left to the caller.
IntrusivePtr<UnfoldedTuple> MakeUnfolded(const TuplePtr& derived,
                                         Tuple* origin);

// Builds one UnfoldedTuple for each originating tuple of `derived`.
// Shared by SuNode and the composed Figure 5B Map function.
void UnfoldInto(const TuplePtr& derived, std::vector<Tuple*>& origins,
                TraversalScratch& scratch,
                std::vector<IntrusivePtr<UnfoldedTuple>>& out);

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
