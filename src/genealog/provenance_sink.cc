#include "genealog/provenance_sink.h"

#include "genealog/lineage_store.h"

namespace genealog {

ProvenanceSinkNode::ProvenanceSinkNode(std::string name,
                                       ProvenanceSinkSpec options)
    : SingleInputNode(std::move(name)),
      options_(std::move(options)),
      output_("ProvenanceSinkNode " + this->name(), options_.file_path,
              EngineOptions::prov_buffer_bytes) {}

void ProvenanceSinkNode::OnTuple(TuplePtr t) {
  auto u = StaticPointerCast<UnfoldedTuple>(std::move(t));
  auto it = by_id_.find(u->derived_id);
  if (it == by_id_.end()) {
    groups_.emplace_back();
    auto group_it = std::prev(groups_.end());
    group_it->record.derived = u->derived;
    group_it->record.derived_id = u->derived_id;
    group_it->record.derived_ts = u->derived_ts;
    it = by_id_.emplace(u->derived_id, group_it).first;
  }
  Group& group = *it->second;
  // The same source tuple can reach a sink tuple over two paths that split
  // across SPE instances (it is deduplicated within one instance by the
  // traversal's visited set, but not across MU rewrites); dedup by id here.
  if (group.seen_origin_ids.insert(u->origin_id).second) {
    group.record.origins.push_back(u->origin);
  }
}

void ProvenanceSinkNode::OnWatermark(int64_t wm) {
  FinalizeBefore(SatSub(wm, options_.finalize_slack));
}

void ProvenanceSinkNode::OnFlush() {
  FinalizeBefore(kWatermarkMax);
  // End-of-stream: everything buffered must be in the file before the node
  // reports done — probes may read the file while the node is still alive.
  output_.Flush();
}

void ProvenanceSinkNode::FinalizeBefore(int64_t ts_horizon) {
  // Groups are in first-appearance order, which for MU outputs is not always
  // derived_ts order; scan the whole (small) list.
  for (auto it = groups_.begin(); it != groups_.end();) {
    if (it->record.derived_ts < ts_horizon) {
      Finalize(*it);
      by_id_.erase(it->record.derived_id);
      it = groups_.erase(it);
    } else {
      ++it;
    }
  }
}

void ProvenanceSinkNode::Finalize(Group& group) {
  output_.Write(group.record);
  if (options_.lineage != nullptr) {
    options_.lineage->Ingest(group.record);
  }
  if (options_.consumer) {
    options_.consumer(group.record);
  }
}

}  // namespace genealog
