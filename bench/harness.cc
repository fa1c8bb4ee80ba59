#include "bench/harness.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/env_knob.h"
#include "common/memory_accounting.h"
#include "common/stats.h"
#include "common/tuple_pool.h"
#include "common/wall_clock.h"

namespace genealog::bench {

namespace {

// A repetition count from the environment: at least 1, at most INT_MAX.
int EnvRepeatKnob(const char* name, int fallback) {
  return static_cast<int>(std::clamp<int64_t>(
      EnvCountKnob(name, fallback), 1, std::numeric_limits<int>::max()));
}

}  // namespace

BenchEnv ReadBenchEnv() {
  BenchEnv env;
  env.reps = EnvRepeatKnob("GENEALOG_BENCH_REPS", env.reps);
  env.scale = std::max(0.05, ParseRealKnob("GENEALOG_BENCH_SCALE",
                                           std::getenv("GENEALOG_BENCH_SCALE"),
                                           env.scale));
  env.replays = EnvRepeatKnob("GENEALOG_BENCH_REPLAYS", env.replays);
  env.engine = EngineOptions::FromEnv();
  if (const char* dir = std::getenv("GENEALOG_BENCH_JSON_DIR")) {
    env.json_dir = dir;
  }
  return env;
}

std::vector<int> EnvCountList(const char* name, std::vector<int> fallback) {
  const char* value = std::getenv(name);
  if (KnobUnset(value)) return fallback;
  const std::string spec = value;
  std::vector<int> counts;
  for (size_t pos = 0;;) {
    const size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const int64_t n = item.empty() ? 0 : ParseCountKnob(name, item.c_str(), 0);
    if (n <= 0 || n > std::numeric_limits<int>::max()) {
      RejectKnob(name, value, "a comma-separated list of positive integers");
    }
    counts.push_back(static_cast<int>(n));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return counts;
}

LrWorkload MakeLrWorkload(double scale) {
  lr::LinearRoadConfig config;
  config.n_cars = std::max(4, static_cast<int>(200 * scale));
  config.duration_s = 3600;
  config.stop_probability = 0.002;
  config.accident_probability = 0.01;
  config.forced_accident_ticks = {15, 55, 95};
  config.seed = 42;
  LrWorkload w;
  w.data = lr::GenerateLinearRoad(config);
  w.span_s = config.duration_s;
  w.bytes = SerializedBytes(w.data.reports);
  return w;
}

SgWorkload MakeSgWorkload(double scale) {
  sg::SmartGridConfig config;
  config.n_meters = std::max(10, static_cast<int>(120 * scale));
  config.n_days = 21;
  config.blackout_probability = 0.1;
  config.forced_blackout_days = {9};
  config.blackout_meters = 8;
  config.anomaly_probability = 0.002;
  config.seed = 42;
  SgWorkload w;
  w.data = sg::GenerateSmartGrid(config);
  w.span_hours = config.n_days * 24;
  w.bytes = SerializedBytes(w.data.readings);
  return w;
}

CellMetrics RunCell(const QueryFactory& factory) {
  mem::ResetAll();
  BuiltDataflow q = factory();
  SourceNodeBase* source = q.source();
  SinkNode* sink = q.sink();

  // Sample instances 1..3 every 2 ms while the query runs.
  mem::MemorySampler sampler(/*n_instances=*/4, /*period_ms=*/2);
  // Latency warm-up: skip the first 10% of wall-clock time, approximated by
  // a short absolute warm-up (workloads here run a few seconds).
  sink->set_record_after_ns(NowNanos() + 100'000'000);  // +100 ms

  q.Run();
  sampler.Stop();

  CellMetrics cell;
  cell.sink_tuples = sink->count();
  const int64_t active_ns = source->active_ns();
  if (active_ns > 0) {
    cell.throughput_tps = static_cast<double>(source->tuples_processed()) /
                          (static_cast<double>(active_ns) / 1e9);
  }
  cell.latency_samples = sink->latency_samples();
  if (cell.latency_samples > 0) {
    cell.latency_ms = sink->mean_latency_ms();
    cell.latency_p50_ms = sink->latency_percentile_ms(50);
    cell.latency_p99_ms = sink->latency_percentile_ms(99);
  }

  constexpr double kMb = 1024.0 * 1024.0;
  for (int instance = 1; instance <= q.n_instances; ++instance) {
    const auto series = sampler.series(instance);
    cell.per_instance_avg_mb.push_back(series.avg_bytes / kMb);
    cell.per_instance_max_mb.push_back(static_cast<double>(series.max_bytes) /
                                       kMb);
    cell.avg_mem_mb += series.avg_bytes / kMb;
    cell.max_mem_mb += static_cast<double>(series.max_bytes) / kMb;
  }

  cell.provenance_records = q.provenance_records();
  cell.mean_origins = q.mean_origins_per_record();
  cell.provenance_bytes = q.provenance_bytes();
  cell.network_bytes = q.network_bytes();
  const WireStats wire = q.wire_stats();
  cell.wire_frames = wire.frames;
  cell.wire_raw_bytes = wire.raw_bytes;
  cell.wire_encoded_bytes = wire.encoded_bytes;
  for (SuNode* su : q.su_nodes) {
    cell.traversal_ms_by_instance.emplace_back(su->instance_id(),
                                               su->mean_traversal_ms());
    cell.graph_size_by_instance.emplace_back(su->instance_id(),
                                             su->mean_graph_size());
  }
  return cell;
}

metrics::QueryVariantResult AggregateCell(const std::string& query,
                                          const std::string& variant,
                                          const QueryFactory& factory,
                                          int reps, uint64_t source_bytes,
                                          std::vector<CellMetrics>* raw) {
  RunStats tput;
  RunStats latency;
  RunStats avg_mem;
  RunStats max_mem;
  RunStats records;
  RunStats prov_bytes;
  RunStats net_bytes;
  RunStats wire_frames;
  RunStats wire_raw;
  RunStats wire_encoded;
  std::vector<RunStats> per_instance_avg;
  std::vector<RunStats> per_instance_max;

  for (int rep = 0; rep < reps; ++rep) {
    CellMetrics cell = RunCell(factory);
    if (raw != nullptr) raw->push_back(cell);
    tput.Add(cell.throughput_tps);
    // A run without latency samples has no latency reading; leaving it out
    // keeps the row's latency absent (runs == 0) rather than 0.00.
    if (cell.latency_samples > 0) latency.Add(cell.latency_ms);
    avg_mem.Add(cell.avg_mem_mb);
    max_mem.Add(cell.max_mem_mb);
    records.Add(static_cast<double>(cell.provenance_records));
    prov_bytes.Add(static_cast<double>(cell.provenance_bytes));
    net_bytes.Add(static_cast<double>(cell.network_bytes));
    wire_frames.Add(static_cast<double>(cell.wire_frames));
    wire_raw.Add(static_cast<double>(cell.wire_raw_bytes));
    wire_encoded.Add(static_cast<double>(cell.wire_encoded_bytes));
    per_instance_avg.resize(
        std::max(per_instance_avg.size(), cell.per_instance_avg_mb.size()));
    per_instance_max.resize(
        std::max(per_instance_max.size(), cell.per_instance_max_mb.size()));
    for (size_t i = 0; i < cell.per_instance_avg_mb.size(); ++i) {
      per_instance_avg[i].Add(cell.per_instance_avg_mb[i]);
      per_instance_max[i].Add(cell.per_instance_max_mb[i]);
    }
  }

  auto ToCell = [](const RunStats& s) {
    return metrics::CellStats{s.mean(), s.ci95(), static_cast<int>(s.count())};
  };
  metrics::QueryVariantResult row;
  row.query = query;
  row.variant = variant;
  row.throughput_tps = ToCell(tput);
  row.latency_ms = ToCell(latency);
  row.avg_mem_mb = ToCell(avg_mem);
  row.max_mem_mb = ToCell(max_mem);
  row.provenance_records = ToCell(records);
  row.provenance_bytes = ToCell(prov_bytes);
  row.network_bytes = ToCell(net_bytes);
  row.wire_frames = ToCell(wire_frames);
  row.wire_raw_bytes = ToCell(wire_raw);
  row.wire_encoded_bytes = ToCell(wire_encoded);
  row.source_bytes =
      metrics::CellStats{static_cast<double>(source_bytes), 0, 1};
  for (const auto& s : per_instance_avg) {
    row.per_instance_avg_mem_mb.push_back(ToCell(s));
  }
  for (const auto& s : per_instance_max) {
    row.per_instance_max_mem_mb.push_back(ToCell(s));
  }
  return row;
}

const char* VariantName(ProvenanceMode mode) { return ToString(mode); }

void WritePoolStatsFields(std::FILE* f) {
  const pool::Stats s = pool::GetStats();
  std::fprintf(f,
               "\"pool\": {\"slabs\": %llu, \"slab_bytes\": %llu, "
               "\"pool_allocs\": %llu, \"recycled_allocs\": %llu, "
               "\"heap_allocs\": %llu, \"recycle_hit_rate\": %.4f}",
               static_cast<unsigned long long>(s.slabs),
               static_cast<unsigned long long>(s.slab_bytes),
               static_cast<unsigned long long>(s.pool_allocs),
               static_cast<unsigned long long>(s.recycled_allocs),
               static_cast<unsigned long long>(s.heap_allocs),
               s.recycle_hit_rate());
}

CellMetrics MeanCells(const std::vector<CellMetrics>& cells) {
  CellMetrics mean;
  if (cells.empty()) return mean;
  const double n = static_cast<double>(cells.size());
  uint64_t sink_tuples = 0;
  uint64_t provenance_records = 0;
  uint64_t provenance_bytes = 0;
  uint64_t network_bytes = 0;
  uint64_t wire_frames = 0;
  uint64_t wire_raw_bytes = 0;
  uint64_t wire_encoded_bytes = 0;
  const double sampled = static_cast<double>(
      std::count_if(cells.begin(), cells.end(), [](const CellMetrics& c) {
        return c.latency_samples > 0;
      }));
  for (const CellMetrics& c : cells) {
    mean.throughput_tps += c.throughput_tps / n;
    if (c.latency_samples > 0) {
      mean.latency_samples += c.latency_samples;
      mean.latency_ms += c.latency_ms / sampled;
      mean.latency_p50_ms += c.latency_p50_ms / sampled;
      mean.latency_p99_ms += c.latency_p99_ms / sampled;
    }
    mean.avg_mem_mb += c.avg_mem_mb / n;
    mean.max_mem_mb += c.max_mem_mb / n;
    mean.mean_origins += c.mean_origins / n;
    sink_tuples += c.sink_tuples;
    provenance_records += c.provenance_records;
    provenance_bytes += c.provenance_bytes;
    network_bytes += c.network_bytes;
    wire_frames += c.wire_frames;
    wire_raw_bytes += c.wire_raw_bytes;
    wire_encoded_bytes += c.wire_encoded_bytes;
  }
  mean.sink_tuples = sink_tuples / cells.size();
  mean.provenance_records = provenance_records / cells.size();
  mean.provenance_bytes = provenance_bytes / cells.size();
  mean.network_bytes = network_bytes / cells.size();
  mean.wire_frames = wire_frames / cells.size();
  mean.wire_raw_bytes = wire_raw_bytes / cells.size();
  mean.wire_encoded_bytes = wire_encoded_bytes / cells.size();
  // Traversal stats: averaged per SU position (the instance layout is the
  // same across repetitions of one cell).
  mean.traversal_ms_by_instance = cells.front().traversal_ms_by_instance;
  mean.graph_size_by_instance = cells.front().graph_size_by_instance;
  for (auto& [instance, ms] : mean.traversal_ms_by_instance) ms = 0;
  for (auto& [instance, size] : mean.graph_size_by_instance) size = 0;
  for (const CellMetrics& c : cells) {
    const size_t lanes = std::min(mean.traversal_ms_by_instance.size(),
                                  c.traversal_ms_by_instance.size());
    for (size_t i = 0; i < lanes; ++i) {
      mean.traversal_ms_by_instance[i].second +=
          c.traversal_ms_by_instance[i].second / n;
      mean.graph_size_by_instance[i].second +=
          c.graph_size_by_instance[i].second / n;
    }
  }
  return mean;
}

void WriteBenchJson(const std::string& bench, const BenchEnv& env,
                    const std::vector<BenchJsonRow>& rows) {
  if (env.json_dir.empty()) return;
  const std::string path = env.json_dir + "/BENCH_" + bench + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WriteBenchJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"reps\": %d,\n"
               "  \"scale\": %g,\n  \"replays\": %d,\n"
               "  \"wire_codec\": \"%s\",\n  ",
               bench.c_str(), env.reps, env.scale, env.replays,
               env.engine.wire_codec == WireCodec::kCompact ? "compact"
                                                             : "raw");
  WritePoolStatsFields(f);
  std::fprintf(f, ",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchJsonRow& r = rows[i];
    // Absent latency (no samples) is null, never a 0.0 reading.
    auto latency = [&r](double ms) {
      if (r.mean.latency_samples == 0) return std::string("null");
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.4f", ms);
      return std::string(buf);
    };
    std::fprintf(
        f,
        "    {\"query\": \"%s\", \"variant\": \"%s\", \"deployment\": \"%s\", "
        "\"batch_size\": %zu, \"reps\": %d, "
        "\"throughput_tps\": %.1f, \"latency_ms\": %s, "
        "\"latency_p50_ms\": %s, \"latency_p99_ms\": %s, "
        "\"avg_mem_mb\": %.2f, \"max_mem_mb\": %.2f, "
        "\"sink_tuples\": %llu, \"provenance_records\": %llu, "
        "\"provenance_bytes\": %llu, \"network_bytes\": %llu, "
        "\"wire_frames\": %llu, \"wire_raw_bytes\": %llu, "
        "\"wire_encoded_bytes\": %llu, "
        "\"traversal\": [",
        r.query.c_str(), r.variant.c_str(), r.deployment.c_str(), r.batch_size,
        r.reps, r.mean.throughput_tps, latency(r.mean.latency_ms).c_str(),
        latency(r.mean.latency_p50_ms).c_str(),
        latency(r.mean.latency_p99_ms).c_str(), r.mean.avg_mem_mb,
        r.mean.max_mem_mb,
        static_cast<unsigned long long>(r.mean.sink_tuples),
        static_cast<unsigned long long>(r.mean.provenance_records),
        static_cast<unsigned long long>(r.mean.provenance_bytes),
        static_cast<unsigned long long>(r.mean.network_bytes),
        static_cast<unsigned long long>(r.mean.wire_frames),
        static_cast<unsigned long long>(r.mean.wire_raw_bytes),
        static_cast<unsigned long long>(r.mean.wire_encoded_bytes));
    for (size_t t = 0; t < r.mean.traversal_ms_by_instance.size(); ++t) {
      const double graph =
          t < r.mean.graph_size_by_instance.size()
              ? r.mean.graph_size_by_instance[t].second
              : 0.0;
      std::fprintf(f, "{\"instance\": %d, \"ms\": %.6f, \"graph\": %.1f}%s",
                   r.mean.traversal_ms_by_instance[t].first,
                   r.mean.traversal_ms_by_instance[t].second, graph,
                   t + 1 < r.mean.traversal_ms_by_instance.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace genealog::bench
