// Shared benchmark harness: runs one (query, variant, deployment) cell with
// repetitions and collects the paper's metrics — throughput, latency, per-
// instance memory, provenance volume, network volume, traversal cost.
//
// Environment knobs:
//   GENEALOG_BENCH_REPS     repetitions per cell (default 3)
//   GENEALOG_BENCH_SCALE    workload scale multiplier (default 1.0)
//   GENEALOG_BENCH_REPLAYS  dataset replays per run (default 20) — each run
//                           streams replays × dataset tuples, giving seconds
//                           of steady state per measurement
//   GENEALOG_BATCH_SIZE     stream batch size for every edge (default 64;
//                           1 reproduces the unbatched seed data plane)
//   GENEALOG_SCHEDULER      pool runs schedulable nodes on the shared
//                           morsel-driven worker pool; thread-per-node
//                           (default) keeps one OS thread per operator
//   GENEALOG_WORKERS        pool worker threads (default 0 = one per
//                           hardware thread, capped by the task count)
//   GENEALOG_BENCH_JSON_DIR directory for machine-readable BENCH_*.json
//                           result files (default ".", empty disables)
// The numeric settings parse strictly (common/env_knob.h): a malformed value
// throws std::invalid_argument naming the variable instead of running a
// default.
#ifndef GENEALOG_BENCH_HARNESS_H_
#define GENEALOG_BENCH_HARNESS_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/engine_options.h"
#include "metrics/report.h"
#include "queries/queries.h"

namespace genealog::bench {

struct BenchEnv {
  int reps = 3;
  double scale = 1.0;
  int replays = 12;
  // The unified knob snapshot (common/engine_options.h): the GENEALOG_*
  // environment defaults plus GENEALOG_BATCH_SIZE.
  EngineOptions engine;
  std::string json_dir = ".";
};
BenchEnv ReadBenchEnv();

// Reads a comma-separated list of positive integers from the environment
// variable `name` (GENEALOG_BENCH_QUERY_COUNTS, GENEALOG_BENCH_SHARDS).
// Unset or empty keeps `fallback`; a malformed or zero entry throws
// std::invalid_argument naming the variable.
std::vector<int> EnvCountList(const char* name, std::vector<int> fallback);

// A bench workload: the dataset plus its logical time span (the ts shift
// applied per replay) and serialized volume.
struct LrWorkload {
  lr::LinearRoadData data;
  int64_t span_s = 0;
  uint64_t bytes = 0;  // serialized volume of one replay
};
struct SgWorkload {
  sg::SmartGridData data;
  int64_t span_hours = 0;
  uint64_t bytes = 0;
};

LrWorkload MakeLrWorkload(double scale);
SgWorkload MakeSgWorkload(double scale);

// Applies the replay settings to a query's source options.
inline void ApplyReplays(queries::QueryBuildOptions& options, int replays,
                         int64_t span) {
  options.source.replays = replays;
  options.source.replay_ts_shift = span;
}

// Serialized volume of the source dataset (for the provenance-volume ratio).
template <typename T>
uint64_t SerializedBytes(const std::vector<IntrusivePtr<T>>& data) {
  ByteWriter w;
  uint64_t total = 0;
  for (const auto& t : data) {
    w.Clear();
    SerializeTuple(*t, w);
    total += w.size();
  }
  return total;
}

struct CellMetrics {
  double throughput_tps = 0;
  // Sink latency samples behind the three latency fields. Zero means latency
  // is absent (the run ended inside the warm-up): the fields then carry no
  // reading, tables print n/a and BENCH JSON writes null.
  uint64_t latency_samples = 0;
  double latency_ms = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double avg_mem_mb = 0;   // sum over instances
  double max_mem_mb = 0;
  std::vector<double> per_instance_avg_mb;
  std::vector<double> per_instance_max_mb;
  uint64_t sink_tuples = 0;
  uint64_t provenance_records = 0;
  uint64_t provenance_bytes = 0;
  double mean_origins = 0;
  uint64_t network_bytes = 0;
  // Wire-codec accounting (net/frame.h WireStats): frames shipped, the bytes
  // the raw codec would have cost, and the bytes actually on the wire.
  uint64_t wire_frames = 0;
  uint64_t wire_raw_bytes = 0;
  uint64_t wire_encoded_bytes = 0;
  // Traversal stats per SU, keyed by instance id (Figure 14).
  std::vector<std::pair<int, double>> traversal_ms_by_instance;
  std::vector<std::pair<int, double>> graph_size_by_instance;
};

// One full run of a built query; the builder is invoked fresh per call.
using QueryFactory = std::function<BuiltDataflow()>;
CellMetrics RunCell(const QueryFactory& factory);

// Repetition + aggregation into a table row.
metrics::QueryVariantResult AggregateCell(
    const std::string& query, const std::string& variant,
    const QueryFactory& factory, int reps, uint64_t source_bytes,
    std::vector<CellMetrics>* raw = nullptr);

const char* VariantName(ProvenanceMode mode);

// --- machine-readable results ------------------------------------------------
// One row of a BENCH_*.json file: a (query, variant) cell averaged over its
// repetitions, tagged with the batch size and deployment it ran under.
struct BenchJsonRow {
  std::string query;
  std::string variant;     // NP / GL / BL
  std::string deployment;  // intra / dist / micro
  size_t batch_size = 1;
  int reps = 1;
  CellMetrics mean;  // per-field mean over the repetitions
};

// Per-field mean over repeated cells (empty input yields zeros). Latency is
// averaged over the cells that sampled it; latency_samples is the total.
CellMetrics MeanCells(const std::vector<CellMetrics>& cells);

// Writes the shared `"pool": {...}` JSON fragment (the tuple pool's slab and
// recycle stats) used by every BENCH_*.json writer, so the artifact series
// stays field-for-field uniform. Emits no leading/trailing newline; the
// caller owns the surrounding object.
void WritePoolStatsFields(std::FILE* f);

// Writes `<json_dir>/BENCH_<bench>.json` recording the environment (including
// the tuple pool's slab and recycle-hit-rate stats at write time) and every
// row, so the perf trajectory across PRs can be tracked by tooling. No-op
// when json_dir is empty.
void WriteBenchJson(const std::string& bench, const BenchEnv& env,
                    const std::vector<BenchJsonRow>& rows);

}  // namespace genealog::bench

#endif  // GENEALOG_BENCH_HARNESS_H_
