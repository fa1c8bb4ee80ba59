// MU — the multi-stream unfolder (Definition 6.4, Figures 6 and 8).
//
// Inputs: one *derived* unfolded delivering stream (port 0) and any number of
// *upstream* unfolded delivering streams (ports 1..k). A derived tuple whose
// originating part is of type SOURCE is forwarded as-is; one whose
// originating part is REMOTE is replaced by the upstream tuples whose
// delivering id equals its originating id (ti.ID = t.IDO), rewritten to carry
// the derived (sink-side) attributes with the upstream originating part.
//
// The match is a windowed equi-join on ids: matching tuples can be up to the
// sum of the window sizes of the stateful operators of the instance producing
// the derived stream apart in event time (§6.1), which is the `ws` the
// deployment passes here.
//
// Two implementations:
//  * MuNode — fused operator with hash-indexed windows;
//  * BuildComposedMu — the literal Figure 8 construction from standard
//    operators: Union (upstreams) -> Join <- Filter(not SOURCE) <- Multiplex
//    <- derived, plus Filter(SOURCE) -> Union -> output. Dataflow lowering
//    always uses MuNode; the construction is a node-level reference
//    implementation that mu_test checks MuNode against.
#ifndef GENEALOG_GENEALOG_MU_H_
#define GENEALOG_GENEALOG_MU_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "genealog/unfolded.h"
#include "spe/join.h"
#include "spe/node.h"
#include "spe/stateless.h"
#include "spe/topology.h"

namespace genealog {

class MuNode final : public MergingNode {
 public:
  MuNode(std::string name, int64_t ws)
      : MergingNode(std::move(name)), ws_(ws) {}

 protected:
  void OnMergedTuple(size_t port, TuplePtr t) override;
  void OnMergedWatermark(int64_t wm) override;

 private:
  using UnfoldedPtr = IntrusivePtr<UnfoldedTuple>;
  // Window buffer with a hash index: arrival-ordered deque for purging plus
  // id -> tuples (arrival order) for matching.
  struct IndexedWindow {
    std::deque<UnfoldedPtr> order;
    std::unordered_map<uint64_t, std::vector<UnfoldedTuple*>> by_id;

    void Insert(uint64_t key, UnfoldedPtr u);
    void PurgeBefore(int64_t horizon_ts,
                     uint64_t (*key_of)(const UnfoldedTuple&));
  };

  void EmitRewrite(const UnfoldedTuple& derived, const UnfoldedTuple& upstream);

  int64_t ws_;
  IndexedWindow derived_;   // keyed by origin_id
  IndexedWindow upstream_;  // keyed by derived_id
};

// The Figure 8 construction. The caller connects:
//   * the derived stream to `derived_entry`,
//   * each upstream stream to `upstream_entry` (a Union; with one upstream it
//     degenerates to a forwarding merge, which the paper notes is optional),
//   * `output` to the consumer.
struct ComposedMu {
  Node* derived_entry;
  Node* upstream_entry;
  Node* output;
};
ComposedMu BuildComposedMu(Topology& topology, const std::string& name,
                           int64_t ws);

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_MU_H_
