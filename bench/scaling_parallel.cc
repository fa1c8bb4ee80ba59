// Multi-core scaling of the fluent `.KeyBy(...).Parallel(n)` stage: items/s
// vs shard count, pool scheduler vs thread-per-node, GL provenance active.
//
// The workload is the compute-bound regime from bench/ablation_parallel.cc —
// kernel-density anomaly scoring over weekly windows, O(bandwidths * n^2)
// exp() calls per window — because that is the regime key partitioning is
// *for*: window computation dominates and shards across the replicas. Where
// the ablation compares a cheap and a heavy combiner on the default
// scheduler, this bench sweeps the scheduler too; both build the stage with
// `.KeyBy(...).Parallel(n)`, so they measure the whole lowered stage:
// KeyPartitionNode routing, the replicas, the KeyedMergeNode re-sort, and
// the woven provenance plane. Emits BENCH_parallel_scaling.json
// (one row per shard count x scheduler).
//
// Extra knobs on top of the harness environment (bench/harness.h):
//   GENEALOG_BENCH_SHARDS  comma list of shard counts (default "1,2,4,8")
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/stats.h"
#include "common/wall_clock.h"
#include "spe/dataflow.h"

namespace genealog::bench {
namespace {

using sg::DailyConsumption;
using sg::MeterReading;

// The heavy combiner from the parallel ablation: per-reading Gaussian
// similarity to every other reading in the window, across several
// bandwidths; the window score is the most anomalous reading's density.
AggregateCombiner<MeterReading, DailyConsumption, int64_t> HeavyKde() {
  return [](const WindowView<MeterReading, int64_t>& w) {
    constexpr double kBandwidths[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    double min_density = 1e300;
    for (const auto& a : w.tuples) {
      double density = 0;
      for (double bandwidth : kBandwidths) {
        for (const auto& b : w.tuples) {
          const double d = (a->cons - b->cons) / bandwidth;
          density += std::exp(-0.5 * d * d) / bandwidth;
        }
      }
      min_density = std::min(min_density, density);
    }
    return MakeTuple<DailyConsumption>(0, w.key, min_density);
  };
}

struct CellResult {
  double items_per_s = 0;  // source emissions / wall clock
  double wall_s = 0;
  uint64_t sink_tuples = 0;
  uint64_t provenance_records = 0;
};

CellResult RunOnce(const SgWorkload& workload, const BenchEnv& env,
                   int replays, int shards, SchedulerMode scheduler) {
  DataflowOptions opts;
  opts.mode = ProvenanceMode::kGenealog;
  opts.engine() = env.engine;
  opts.scheduler = scheduler;

  Dataflow df(opts);
  SourceOptions so;
  so.replays = replays;
  so.replay_ts_shift = workload.span_hours;
  df.Source<MeterReading>("source", workload.data.readings, so)
      .KeyBy([](const MeterReading& r) { return r.meter_id; })
      .Parallel(shards)
      .Aggregate<DailyConsumption>("agg.kde", AggregateOptions{168, 168},
                                   HeavyKde())
      .Sink("K");
  BuiltDataflow flow = df.Build();

  const int64_t t0 = NowNanos();
  flow.Run();
  const int64_t t1 = NowNanos();

  CellResult r;
  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  const double emitted =
      static_cast<double>(flow.source()->tuples_processed());
  r.items_per_s = r.wall_s > 0 ? emitted / r.wall_s : 0;
  r.sink_tuples = flow.sink()->count();
  r.provenance_records = flow.provenance_records();
  return r;
}

int Main() {
  BenchEnv env = ReadBenchEnv();
  const SgWorkload workload = MakeSgWorkload(env.scale);
  // The KDE windows are deliberately expensive; a slimmer replay budget
  // keeps cells in bench-smoke time (override with GENEALOG_BENCH_REPLAYS).
  const int replays = std::max(1, env.replays / 4);
  const std::vector<int> shard_counts =
      EnvCountList("GENEALOG_BENCH_SHARDS", {1, 2, 4, 8});

  std::printf(
      "GeneaLog reproduction — fluent .Parallel(n) multi-core scaling\n"
      "(KeyBy(meter).Parallel(n).Aggregate(KDE), GL provenance)\n"
      "readings=%zu replays=%d reps=%d batch_size=%zu workers=%zu (0=auto)\n\n",
      workload.data.readings.size(), replays, env.reps, env.engine.batch_size,
      env.engine.workers);

  std::vector<BenchJsonRow> rows;
  std::printf("%7s  %16s  %12s %10s  %8s\n", "shards", "scheduler",
              "items/s", "speedup", "wall s");
  for (const auto& [sched_name, sched] :
       {std::pair<const char*, SchedulerMode>{"pool", SchedulerMode::kPool},
        std::pair<const char*, SchedulerMode>{"thread-per-node",
                                              SchedulerMode::kThreadPerNode}}) {
    double baseline = 0;
    for (int shards : shard_counts) {
      RunStats tput;
      CellResult last;
      for (int rep = 0; rep < env.reps; ++rep) {
        last = RunOnce(workload, env, replays, shards, sched);
        tput.Add(last.items_per_s);
      }
      if (shards == shard_counts.front()) baseline = tput.mean();
      std::printf("%7d  %16s  %12.0f %9.2fx  %8.2f\n", shards, sched_name,
                  tput.mean(), baseline > 0 ? tput.mean() / baseline : 0.0,
                  last.wall_s);
      std::fflush(stdout);
      CellMetrics m;
      m.throughput_tps = tput.mean();
      m.sink_tuples = last.sink_tuples;
      m.provenance_records = last.provenance_records;
      rows.push_back(BenchJsonRow{"parallel_kde", sched_name,
                                  "shards:" + std::to_string(shards),
                                  env.engine.batch_size, env.reps, m});
    }
  }

  std::printf(
      "\nReading: speedup tracks min(shards, cores) while the KDE windows\n"
      "dominate; past that the partition/merge hops and the provenance\n"
      "plane's serial segments (Amdahl) flatten the curve. On a single-core\n"
      "container expect ~1.0x throughout — the interesting series is the\n"
      "multicore one CI archives per commit.\n");
  WriteBenchJson("parallel_scaling", env, rows);
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
