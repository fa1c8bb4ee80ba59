// The benchmark's metric catalogue: every metric it can print, by name, with
// its unit and the direction that counts as better.
//
// End-to-end metrics are what a user of an edge deployment sees (throughput,
// sink and provenance latency, storage cost, memory, set-up time); the run
// with tracing off prints them. Per-layer metrics come from the traced run
// and locate the cost inside one layer: the source, each operator node, the
// SU traversal, the provenance sink, the lineage store and its service, the
// wire codec and the tuple pool.
//
// Per-node metrics are keyed "i<instance>.<node name>" and cover the nodes
// the workloads' lowered queries contain (Q1 intra-process, Q4 over three
// instances). A workload prints zero for a node it does not have.
#ifndef EDGEBENCH_METRICS_H_
#define EDGEBENCH_METRICS_H_

#include <string>
#include <vector>

namespace edgebench {

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  // End-to-end only: the share of the parent's median by which the metric
  // may worsen before a change counts as a regression.
  double bound = 0;
};

// Printed by every workload when tracing is off: the metrics that are never
// zero and stay within their bound from run to run on every workload. The
// report also prints the sink latency percentiles and the p99s (they follow
// the host's CPU steal by up to 2-10x on a shared VM, beyond any allowed
// bound), the console and wire metrics where they apply, and error_rate
// (failed / attempted of the result object).
const std::vector<MetricSpec>& EndToEndMetrics();

// Printed by every workload when tracing is on.
const std::vector<MetricSpec>& PerLayerMetrics();

// The per-node keys ("i1.source", "i3.MU", ...) the per-layer set covers.
const std::vector<std::string>& NodeKeys();

// Span names whose self time the traced run reports as trace.self_ms.<name>.
const std::vector<std::string>& SpanNames();

// The BENCHMARK.json fragments ("end_to_end" and "per_layer" arrays) for
// the catalogue, one JSON object per line.
std::string CatalogueJson();

}  // namespace edgebench

#endif  // EDGEBENCH_METRICS_H_
