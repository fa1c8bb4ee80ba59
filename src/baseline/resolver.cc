#include "baseline/resolver.h"

namespace genealog {

BaselineResolverNode::BaselineResolverNode(std::string name,
                                           BaselineResolverOptions options)
    : MergingNode(std::move(name)),
      options_(std::move(options)),
      output_("BaselineResolverNode " + this->name(), options_.file_path,
              EngineOptions::prov_buffer_bytes) {}

void BaselineResolverNode::OnMergedTuple(size_t port, TuplePtr t) {
  if (port == 0) {
    pending_sinks_.push_back(std::move(t));
  } else {
    store_.Insert(std::move(t));
  }
}

void BaselineResolverNode::OnMergedWatermark(int64_t wm) {
  ResolveBefore(SatSub(wm, options_.slack));
  if (options_.evict) {
    // A source tuple can contribute to sink tuples up to `slack` away; the
    // oldest unresolved sink has ts >= wm - slack, so anything older than
    // wm - 2*slack can never be needed again.
    store_.EvictBefore(SatSub(wm, SatAdd(options_.slack, options_.slack)));
  }
}

void BaselineResolverNode::OnAllFlushed() {
  ResolveBefore(kWatermarkMax);
  // End-of-stream: every record must be in the file before the node reports
  // done — probes may read the file while the node is still alive, as with
  // ProvenanceSinkNode::OnFlush.
  output_.Flush();
}

void BaselineResolverNode::ResolveBefore(int64_t ts_horizon) {
  // The merged stream delivers sink tuples in ts order, so pending_sinks_ is
  // sorted and a prefix scan suffices.
  while (!pending_sinks_.empty() && pending_sinks_.front()->ts < ts_horizon) {
    Resolve(pending_sinks_.front());
    pending_sinks_.pop_front();
  }
}

void BaselineResolverNode::Resolve(const TuplePtr& sink_tuple) {
  ProvenanceRecord record;
  record.derived = sink_tuple;
  record.derived_id = sink_tuple->id;
  record.derived_ts = sink_tuple->ts;
  if (const auto* ann = sink_tuple->baseline_annotation()) {
    record.origins.reserve(ann->size());
    for (uint64_t id : *ann) {
      if (TuplePtr origin = store_.Lookup(id)) {
        record.origins.push_back(std::move(origin));
      } else {
        ++missing_ids_;
      }
    }
  }
  output_.Write(record);
  if (options_.consumer) options_.consumer(record);
}

}  // namespace genealog
