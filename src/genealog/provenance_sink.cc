#include "genealog/provenance_sink.h"

#include <stdexcept>
#include <string>

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
  if (u->derived_ts < finalized_before_) {
    throw std::runtime_error(
        name() + ": U tuple for derived id " + std::to_string(u->derived_id) +
        " at ts " + std::to_string(u->derived_ts) +
        " arrived after its record was finalized (horizon " +
        std::to_string(finalized_before_) + ")");
  }
  auto [it, inserted] = groups_.try_emplace({u->derived_ts, u->derived_id});
  Group& group = it->second;
  if (inserted) {
    group.record.derived = u->derived;
    group.record.derived_id = u->derived_id;
    group.record.derived_ts = u->derived_ts;
  }
  // The same source tuple can reach a sink tuple over two paths that split
  // across SPE instances (it is deduplicated within one instance by the
  // traversal's visited set, but not across MU rewrites); dedup by id here.
  if (group.seen_origin_ids.insert(u->origin_id).second) {
    group.record.origins.push_back(u->origin);
  }
}

void ProvenanceSinkNode::OnWatermark(int64_t wm) { FinalizeBefore(wm); }

void ProvenanceSinkNode::OnFlush() {
  FinalizeBefore(kWatermarkMax);
  // End-of-stream: everything buffered must be in the file before the node
  // reports done — probes may read the file while the node is still alive.
  output_.Flush();
}

void ProvenanceSinkNode::FinalizeBefore(int64_t ts_horizon) {
  auto it = groups_.begin();
  for (; it != groups_.end() && it->first.first < ts_horizon; ++it) {
    const ProvenanceRecord& record = it->second.record;
    output_.Write(record);
    if (options_.lineage != nullptr) options_.lineage->Ingest(record);
    if (options_.consumer) options_.consumer(record);
  }
  groups_.erase(groups_.begin(), it);
  finalized_before_ = ts_horizon;
}

}  // namespace genealog
