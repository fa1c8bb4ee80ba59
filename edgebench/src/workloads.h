// The four edge-provenance workloads and the phases that measure them.
//
//  lr-intra  Q1 GL, one instance: the data plane (source, edges, sliding
//            aggregate, tuple pool) does nearly all the work; wire, MU and
//            lineage store are bypassed.
//  sg-dist   Q4 GL over two processing instances and one provenance
//            instance on TCP loopback, lineage store on: the provenance
//            plane (SU, wire codec, MU, provenance sink, store ingest) does
//            most of the work.
//  console   Q1 GL with the lineage store served over TCP and one
//            closed-loop LineageClient asking about ingested alerts (Lookup,
//            Contributors, Select over recent event time, Stats): reads
//            beside writes on one store.
//  fleet     Four Q1 GL queries through one Runner on the worker pool, the
//            only workload that exercises the pool scheduler.
//
// Every workload runs an unthrottled phase (work per second at a stated
// input size) and an open-loop paced phase (SourceOptions::max_rate_tps at
// a constant rate set well below capacity). Each phase repeats a fresh
// Build/Run of the query until its share of the run's seconds is spent, and
// reports medians over repetitions. Every repetition's sink stream and
// provenance records are checked against the oracle.
//
// The traced run repeats the phases with span recording and ~1 ms queue
// sampling on, adds an NP companion (lr-intra, sg-dist) and replays of the
// traversal, lineage ingest/lookup and wire codec on captured tuples, and
// reports the per-layer metrics.
#ifndef EDGEBENCH_WORKLOADS_H_
#define EDGEBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace edgebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Multiplies the generated data (and so every repetition's length);
  // 1.0 is the benchmark, the smoke tests run a small fraction.
  double scale = 1.0;
  // Directory for provenance files (created and removed per repetition).
  std::string scratch_dir = ".";
};

struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Measured metrics by name; a metric the run could not support (too few
  // samples) is absent.
  std::map<std::string, double> metrics;
  // Human-readable report lines, printed before the result object.
  std::vector<std::string> report;
  // JSON object: the EngineOptions the workload ran with.
  std::string engine_json;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. Throws std::invalid_argument on an unknown name.
WorkloadResult RunWorkload(const RunOptions& options, Tracer& tracer);

}  // namespace edgebench

#endif  // EDGEBENCH_WORKLOADS_H_
