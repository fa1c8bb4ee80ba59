#include "genealog/su.h"

#include "common/wall_clock.h"

namespace genealog {

std::span<Tuple* const> Unfolder::Traverse(const TuplePtr& derived) {
  const int64_t t0 = NowNanos();
  origins_.clear();
  FindProvenance(derived.get(), origins_, scratch_);
  traversal_ms_.Add(NanosToMillis(NowNanos() - t0));
  graph_size_.Add(static_cast<double>(origins_.size()));
  return origins_;
}

IntrusivePtr<UnfoldedTuple> Unfolder::MakeUnfolded(const TuplePtr& derived,
                                                   Tuple* o) {
  auto u = MakeTuple<UnfoldedTuple>(derived->ts);
  u->stimulus = derived->stimulus;
  u->derived = derived;
  u->derived_id = derived->id;
  u->derived_ts = derived->ts;
  u->origin = TuplePtr(o);
  u->origin_id = o->id;
  u->origin_ts = o->ts;
  u->origin_kind = o->kind;
  return u;
}

SuNode::SuNode(std::string name, RetentionSpec retention)
    : SingleInputNode(std::move(name)),
      retention_(std::make_unique<RetentionIndex>(this->name(), retention)) {}

void SuNode::AbortQueues() {
  Node::AbortQueues();
  if (retention_ != nullptr) retention_->Abort();
}

void SuNode::RetainBatch(StreamBatch& batch) {
  // Retain before forwarding: a request can only follow the SO copy, so the
  // index holds every tuple before anyone can ask for it.
  auto& tuples = batch.tuples;
  size_t retained = 0;
  size_t forwarded = 0;
  for (;;) {
    retained += retention_->Retain(
        std::span<const TuplePtr>(tuples.data() + retained,
                                  tuples.size() - retained));
    if (retained == tuples.size()) break;
    // Full. Only the MU frontier frees room, and it moves only as far as
    // the SO stream got: hand the retained prefix downstream now, with the
    // watermark the sorted stream implies (nothing later is older than the
    // tuple waiting here), then wait.
    for (; forwarded < retained; ++forwarded) {
      if (!EmitTupleTo(0, std::move(tuples[forwarded]))) return;
    }
    if (!outputs_[0].Flush()) return;
    if (!ForwardWatermark(tuples[retained]->ts)) return;
    if (!retention_->AwaitRoom()) return;
  }
  if (forwarded == 0) {
    if (!tuples.empty()) {
      StreamBatch so_chunk;
      so_chunk.tuples = std::move(tuples);
      if (!EmitBatchTo(0, std::move(so_chunk))) return;
    }
  } else {
    for (; forwarded < tuples.size(); ++forwarded) {
      if (!EmitTupleTo(0, std::move(tuples[forwarded]))) return;
    }
  }
  if (batch.has_watermark()) OnWatermark(batch.watermark);
}

void SuNode::OnBatch(StreamBatch& batch) {
  if (retention_ != nullptr) {
    RetainBatch(batch);
    return;
  }
  if (!batch.tuples.empty()) {
    // U first: unfolding borrows the delivering tuples before their handles
    // move into the SO chunk. Both outputs still observe their own streams in
    // order; only the interleaving across the two (independent) queues
    // changes, which no consumer can see. The whole batch's unfolded tuples
    // travel in one queue handover. No reserve: SmallVec::reserve sizes
    // exactly, so per-tuple reserves would re-copy the chunk per input
    // tuple; push_back grows geometrically.
    StreamBatch u_chunk;
    for (const TuplePtr& t : batch.tuples) {
      unfolder_.Unfold(t, [&](IntrusivePtr<UnfoldedTuple> u) {
        u->id = NextTupleId();
        u_chunk.tuples.push_back(std::move(u));
      });
    }

    // SO: the delivering stream passes through unchanged, as one chunk.
    StreamBatch so_chunk;
    so_chunk.tuples = std::move(batch.tuples);
    if (!EmitBatchTo(0, std::move(so_chunk))) return;
    if (!EmitBatchTo(1, std::move(u_chunk))) return;
  }
  if (batch.has_watermark()) OnWatermark(batch.watermark);
}

void SuNode::OnTuple(TuplePtr t) {
  // Step dispatches whole batches to OnBatch; this exists for the
  // SingleInputNode contract (and direct per-tuple drivers in tests).
  StreamBatch batch = StreamBatch::MakeTuple(std::move(t));
  OnBatch(batch);
}

double SuNode::mean_traversal_ms() const {
  return unfolder_.traversal_ms().mean();
}

uint64_t SuNode::traversal_count() const {
  return unfolder_.traversal_ms().count();
}

double SuNode::traversal_percentile_ms(double pct) const {
  return unfolder_.traversal_ms().percentile(pct);
}

double SuNode::mean_graph_size() const { return unfolder_.graph_size().mean(); }

ComposedSu BuildComposedSu(Topology& topology, const std::string& name) {
  auto* mux = topology.Add<MultiplexNode>(name + ".multiplex");
  auto* map = topology.Add<MapNode<Tuple, UnfoldedTuple>>(
      name + ".unfold",
      [unfolder = std::make_shared<Unfolder>()](
          const Tuple& in, MapCollector<UnfoldedTuple>& collector) {
        // Multiplex copies preserve the delivering tuple's id (they are
        // copies), so unfolding the SM copy carries the ids Def. 6.2 needs.
        // The tuple is intrusively ref-counted; materializing a new handle
        // from the reference is safe.
        TuplePtr derived(const_cast<Tuple*>(&in));
        unfolder->Unfold(derived, [&](IntrusivePtr<UnfoldedTuple> u) {
          collector.Emit(std::move(u));
        });
      });
  // Build-time wiring: SM = multiplex output 0 feeds the Map. The caller
  // connects multiplex -> sink (SO, output 1) and map -> consumer (U); for a
  // Multiplex every output receives a copy, so output order is immaterial.
  topology.Connect(mux, map);
  return ComposedSu{mux, mux, map};
}

}  // namespace genealog
