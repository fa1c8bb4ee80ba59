#include "genealog/su.h"

namespace genealog {

// SuNode stamps its own sequence, the serving node its own, and the composed
// path's MapCollector stamps on emit.
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
  PublishSamples(pending_samples_);
  pending_samples_.clear();
}

void SuNode::PublishSamples(
    std::span<const std::pair<double, double>> samples) {
  if (samples.empty()) return;
  std::lock_guard lock(stats_mu_);
  for (const auto& [ms, graph_size] : samples) {
    traversal_ms_.Add(ms);
    graph_size_.Add(graph_size);
  }
}

uint64_t SuNode::retained_count() const {
  return retention_ == nullptr ? 0 : retention_->retained();
}

uint64_t SuNode::requested_count() const {
  return retention_ == nullptr ? 0 : retention_->requested();
}

uint64_t SuNode::evicted_unrequested_count() const {
  return retention_ == nullptr ? 0 : retention_->evicted_unrequested();
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
