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

#include "spe/dataflow.h"
#include "spe/sink.h"
#include "spe/source.h"

// The probe node types BuiltDataflow exposes (spe/dataflow.h only declares
// them), so query callers can read sink, SU and provenance probes.
#include "baseline/resolver.h"
#include "genealog/provenance_sink.h"
#include "genealog/su.h"

namespace genealog::queries {

// Per-query build options: the fluent builder's DataflowOptions (the
// EngineOptions settings, the provenance mode, the provenance file and
// observer) plus the query-level choices below. Each engine field defaults
// to its process-wide GENEALOG_* environment default.
struct QueryBuildOptions : DataflowOptions {
  bool distributed = false;
  // Shard count for the query's key-partitioned aggregate (> 1 lowers the
  // stage to KeyPartitionNode -> N replicas -> keyed merge via
  // `.KeyBy(...).Parallel(n)`). Output is emission-order-identical
  // to the single-instance build at any value.
  int parallelism = 1;
  SourceOptions source;
  // Optional observer (tests, examples): called on the sink thread for each
  // sink tuple.
  SinkNode::Consumer sink_consumer;
};

}  // namespace genealog::queries

#endif  // GENEALOG_QUERIES_COMMON_H_
