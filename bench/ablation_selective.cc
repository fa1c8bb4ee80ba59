// Ablation — contributors-only window provenance (§9 future-work item (i)).
//
// A max()-style aggregate keeps a whole day of readings alive per output
// under Definition 3.1 (every window tuple contributes). With
// ProvenanceScope::kContributorsOnly the combiner declares only the maximal
// reading, shrinking the contribution graph from window-size to 1 and
// letting every other reading be reclaimed at window eviction. This bench
// measures the provenance-volume and memory effect on a peak-detection
// query over the smart-grid workload.
#include <cstdio>

#include "bench/harness.h"
#include "common/memory_accounting.h"
#include "common/stats.h"
#include "common/wall_clock.h"
#include "genealog/provenance_sink.h"
#include "genealog/su.h"
#include "spe/aggregate.h"

namespace genealog::bench {
namespace {

using sg::DailyConsumption;
using sg::MeterReading;

struct RunResult {
  double throughput_tps = 0;
  double avg_mem_mb = 0;
  double max_mem_mb = 0;
  uint64_t provenance_bytes = 0;
  double mean_origins = 0;
  uint64_t alerts = 0;
};

// Source -> Aggregate(max cons per meter per day) -> Filter(peak) -> SU ->
// {sink, provenance sink}.
RunResult RunPeakQuery(const SgWorkload& workload, int replays,
                       ProvenanceScope scope) {
  mem::ResetAll();
  Topology topo(1, ProvenanceMode::kGenealog);
  SourceOptions source_options;
  source_options.replays = replays;
  source_options.replay_ts_shift = workload.span_hours;
  auto* source = topo.Add<VectorSourceNode<MeterReading>>(
      "source", workload.data.readings, source_options);
  AggregateOptions agg_options{24, 24};
  agg_options.provenance_scope = scope;
  auto* agg = topo.Add<AggregateNode<MeterReading, DailyConsumption>>(
      "daily_max", agg_options,
      [](const MeterReading& r) { return r.meter_id; },
      [](const WindowView<MeterReading, int64_t>& w) {
        size_t best = 0;
        for (size_t i = 1; i < w.tuples.size(); ++i) {
          if (w.tuples[i]->cons > w.tuples[best]->cons) best = i;
        }
        if (w.contributors != nullptr) w.contributors->push_back(best);
        return MakeTuple<DailyConsumption>(0, w.key, w.tuples[best]->cons);
      });
  auto* peaks = topo.Add<FilterNode<DailyConsumption>>(
      "peaks", [](const DailyConsumption& d) { return d.cons_sum > 2.5; });
  auto* su = topo.Add<SuNode>("su");
  auto* sink = topo.Add<SinkNode>("sink");
  auto* provenance = topo.Add<ProvenanceSinkNode>("k2", ProvenanceSinkSpec{});
  topo.Connect(source, agg);
  topo.Connect(agg, peaks);
  topo.Connect(peaks, su);
  topo.Connect(su, sink);
  topo.Connect(su, provenance);

  mem::MemorySampler sampler(2, 2);
  RunToCompletion(topo);
  sampler.Stop();

  RunResult result;
  const int64_t active_ns = source->active_ns();
  if (active_ns > 0) {
    result.throughput_tps = static_cast<double>(source->tuples_processed()) /
                            (static_cast<double>(active_ns) / 1e9);
  }
  constexpr double kMb = 1024.0 * 1024.0;
  result.avg_mem_mb = sampler.series(1).avg_bytes / kMb;
  result.max_mem_mb = static_cast<double>(sampler.series(1).max_bytes) / kMb;
  result.provenance_bytes = provenance->bytes_written();
  result.mean_origins = provenance->output().mean_origins_per_record();
  result.alerts = sink->count();
  return result;
}

int Main() {
  const BenchEnv env = ReadBenchEnv();
  std::printf(
      "GeneaLog reproduction — ablation: contributors-only window provenance "
      "(future-work (i))\nreps=%d scale=%.2f replays=%d\n\n",
      env.reps, env.scale, env.replays);
  const SgWorkload workload = MakeSgWorkload(env.scale);

  struct Row {
    const char* name;
    ProvenanceScope scope;
  };
  const Row rows[] = {
      {"all-window-tuples", ProvenanceScope::kAllWindowTuples},
      {"contributors-only", ProvenanceScope::kContributorsOnly},
  };

  std::printf(
      "scope              |  tput(t/s) | avg_mem(MB) | max_mem(MB) | "
      "prov_bytes | origins/alert | alerts\n");
  std::printf(
      "--------------------------------------------------------------------"
      "-------------------------------\n");
  for (const Row& row : rows) {
    RunStats tput;
    RunStats avg_mem;
    RunStats max_mem;
    RunStats bytes;
    RunStats origins;
    uint64_t alerts = 0;
    for (int rep = 0; rep < env.reps; ++rep) {
      RunResult r = RunPeakQuery(workload, env.replays, row.scope);
      tput.Add(r.throughput_tps);
      avg_mem.Add(r.avg_mem_mb);
      max_mem.Add(r.max_mem_mb);
      bytes.Add(static_cast<double>(r.provenance_bytes));
      origins.Add(r.mean_origins);
      alerts = r.alerts;
    }
    std::printf("%-18s | %10.0f | %11.3f | %11.3f | %10.0f | %13.1f | %llu\n",
                row.name, tput.mean(), avg_mem.mean(), max_mem.mean(),
                bytes.mean(), origins.mean(),
                static_cast<unsigned long long>(alerts));
  }
  std::printf(
      "\nExpected shape: identical alerts; contributors-only shrinks each\n"
      "contribution graph from ~24 tuples (the day's readings) to 1 and\n"
      "reduces provenance volume accordingly; query results are unchanged\n"
      "(equivalence is test-enforced in selective_provenance_test).\n");
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
