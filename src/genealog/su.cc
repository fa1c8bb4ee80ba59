#include "genealog/su.h"

namespace genealog {
namespace {

// One tuple of the unfolded stream (Def. 5.1): `derived` paired with the
// originating tuple `o`. The id is left to the caller (SuNode stamps its
// own sequence; the composed path's MapCollector stamps on emit).
IntrusivePtr<UnfoldedTuple> MakeUnfolded(const TuplePtr& derived, Tuple* o) {
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

}  // namespace

void UnfoldInto(const TuplePtr& derived, std::vector<Tuple*>& origins,
                TraversalScratch& scratch,
                std::vector<IntrusivePtr<UnfoldedTuple>>& out) {
  origins.clear();
  FindProvenance(derived.get(), origins, scratch);
  out.reserve(out.size() + origins.size());
  for (Tuple* o : origins) {
    out.push_back(MakeUnfolded(derived, o));
  }
}

void SuNode::UnfoldOne(const TuplePtr& t, StreamBatch& u_chunk) {
  // The traversal itself is the per-sink-tuple cost the paper studies in
  // Figure 14, so it is timed per tuple even when the batch amortizes
  // everything around it.
  const int64_t t0 = NowNanos();
  result_.clear();
  FindProvenance(t.get(), result_, scratch_);
  const int64_t elapsed = NowNanos() - t0;
  pending_samples_.emplace_back(NanosToMillis(elapsed),
                                static_cast<double>(result_.size()));
  if (pending_samples_.size() >= kPublishEvery) PublishStats();

  // One unfolded tuple per originating tuple, created straight into the
  // outgoing chunk — the whole batch's unfolded tuples travel in one queue
  // handover, and the pool hands their storage back from the previous
  // graph's reclamation. No reserve: SmallVec::reserve sizes exactly, so
  // per-tuple reserves would re-copy the chunk per input tuple; push_back
  // grows geometrically.
  for (Tuple* o : result_) {
    auto u = MakeUnfolded(t, o);
    u->id = NextTupleId();
    u_chunk.tuples.push_back(std::move(u));
  }
}

void SuNode::OnBatch(StreamBatch& batch) {
  if (!batch.tuples.empty()) {
    // U first: unfolding borrows the delivering tuples before their handles
    // move into the SO chunk. Both outputs still observe their own streams in
    // order; only the interleaving across the two (independent) queues
    // changes, which no consumer can see.
    StreamBatch u_chunk;
    for (const TuplePtr& t : batch.tuples) UnfoldOne(t, u_chunk);

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

void SuNode::OnFlush() { PublishStats(); }

void SuNode::PublishStats() {
  if (pending_samples_.empty()) return;
  std::lock_guard lock(stats_mu_);
  for (const auto& [ms, graph_size] : pending_samples_) {
    traversal_ms_.Add(ms);
    graph_size_.Add(graph_size);
  }
  pending_samples_.clear();
}

double SuNode::mean_traversal_ms() const {
  std::lock_guard lock(stats_mu_);
  return traversal_ms_.mean();
}

uint64_t SuNode::traversal_count() const {
  std::lock_guard lock(stats_mu_);
  return traversal_ms_.count();
}

double SuNode::traversal_percentile_ms(double pct) const {
  std::lock_guard lock(stats_mu_);
  return traversal_ms_.percentile(pct);
}

double SuNode::mean_graph_size() const {
  std::lock_guard lock(stats_mu_);
  return graph_size_.mean();
}

ComposedSu BuildComposedSu(Topology& topology, const std::string& name) {
  auto* mux = topology.Add<MultiplexNode>(name + ".multiplex");
  auto* map = topology.Add<MapNode<Tuple, UnfoldedTuple>>(
      name + ".unfold",
      [scratch = std::make_shared<TraversalScratch>(),
       origins = std::make_shared<std::vector<Tuple*>>(),
       buffer = std::make_shared<std::vector<IntrusivePtr<UnfoldedTuple>>>()](
          const Tuple& in, MapCollector<UnfoldedTuple>& collector) {
        // Multiplex copies preserve the delivering tuple's id (they are
        // copies), so unfolding the SM copy carries the ids Def. 6.2 needs.
        buffer->clear();
        // The tuple is intrusively ref-counted; materializing a new handle
        // from the reference is safe.
        TuplePtr derived(const_cast<Tuple*>(&in));
        UnfoldInto(derived, *origins, *scratch, *buffer);
        for (auto& u : *buffer) collector.Emit(std::move(u));
        buffer->clear();
      });
  // Build-time wiring: SM = multiplex output 0 feeds the Map. The caller
  // connects multiplex -> sink (SO, output 1) and map -> consumer (U); for a
  // Multiplex every output receives a copy, so output order is immaterial.
  topology.Connect(mux, map);
  return ComposedSu{mux, mux, map};
}

}  // namespace genealog
