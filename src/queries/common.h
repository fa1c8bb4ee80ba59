// Shared scaffolding for the four evaluation queries (§7).
//
// Every query builds in any combination of
//   * provenance mode: NP (none) / GL (GeneaLog) / BL (Ariadne baseline),
//   * deployment: intra-process (one SPE instance) or the paper's 3-instance
//     layout (2 processing instances + 1 provenance instance, Figs. 7/9C/10C/
//     11C), connected by serializing channels (in-memory or TCP loopback).
//
// The builders (queries/queries.h) lower onto the fluent dataflow builder;
// the returned BuiltDataflow owns the topologies and channels and exposes
// the probe nodes the benches read: source (throughput), sink (latency), SU
// nodes (Figure 14 traversal cost), provenance sink / baseline resolver
// (records, graph sizes, on-disk volume).
#ifndef GENEALOG_QUERIES_COMMON_H_
#define GENEALOG_QUERIES_COMMON_H_

#include <functional>
#include <string>

#include "common/engine_options.h"
#include "core/instrumentation.h"
#include "genealog/provenance_record.h"
#include "spe/sink.h"
#include "spe/source.h"

// The probe node types BuiltDataflow exposes (spe/dataflow.h only declares
// them), so query callers can read sink, SU and provenance probes.
#include "baseline/resolver.h"
#include "genealog/provenance_sink.h"
#include "genealog/su.h"

namespace genealog::queries {

// Per-query build options. The engine knobs (batch_size, scheduler,
// use_tcp, composed_unfolders, ...) live in
// the EngineOptions base — `options.batch_size = 64` and friends keep working
// as before, but are now the one unified knob struct every layer shares
// (common/engine_options.h). Each knob defaults to its process-wide
// GENEALOG_* environment default, so an untouched field still follows the
// environment exactly as the old optional<bool> fields did. `engine()`
// exposes the base slice for code that forwards the whole bundle.
struct QueryBuildOptions : EngineOptions {
  ProvenanceMode mode = ProvenanceMode::kNone;
  bool distributed = false;
  // Shard count for the query's key-partitioned aggregate (> 1 lowers the
  // stage to KeyPartitionNode -> N replicas -> keyed merge via
  // `.KeyBy(...).Parallel(n)`). Output is emission-order-identical
  // to the single-instance build at any value.
  int parallelism = 1;
  // BL only: let the source store evict tuples that can no longer contribute
  // (an oracle the paper's baseline does not have) — the eviction ablation.
  bool baseline_oracle_eviction = false;
  // If non-empty, provenance records are persisted here (paper: on disk).
  std::string provenance_file;
  SourceOptions source;
  // Optional observers (tests, examples): called on the sink thread for each
  // sink tuple / finalized provenance record.
  SinkNode::Consumer sink_consumer;
  std::function<void(const ProvenanceRecord&)> provenance_consumer;

  const EngineOptions& engine() const { return *this; }
  EngineOptions& engine() { return *this; }
};

}  // namespace genealog::queries

#endif  // GENEALOG_QUERIES_COMMON_H_
