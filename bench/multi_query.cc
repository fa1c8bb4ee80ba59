// Multi-query scheduler scaling: N concurrent Q1 (GeneaLog) queries on one
// box, pool scheduler vs thread-per-node.
//
// The thread-per-node model (Liebre) costs one OS thread per operator, so N
// queries cost N x nodes-per-query threads and the box drowns in context
// switches long before the CPUs are busy with query work. The morsel-driven
// worker pool (spe/scheduler.h) runs every schedulable node of every query on
// a handful of workers with per-query round-robin fairness. This bench
// measures the crossover: aggregate throughput (summed source emissions /
// wall clock) and p99 sink latency at 1, 8, 64 and 256 concurrent queries,
// in both modes, and reports the pool:thread-per-node speedup per count.
//
// Extra knobs on top of the harness environment (bench/harness.h):
//   GENEALOG_BENCH_QUERY_COUNTS  comma list of concurrency levels
//                                (default "1,8,64,256")
//   GENEALOG_WORKERS             pool worker threads (default: hardware)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/wall_clock.h"
#include "spe/scheduler.h"

namespace genealog::bench {
namespace {

struct ModeResult {
  double wall_s = 0;
  double items_per_s = 0;  // aggregate source emissions / wall clock
  double p99_ms = 0;       // mean of the per-sink p99s
  uint64_t latency_samples = 0;  // summed over the sinks; 0 = p99 absent
  uint64_t sink_tuples = 0;
};

ModeResult RunFleet(const LrWorkload& lr, const BenchEnv& env, int n_queries,
                    SchedulerMode mode) {
  // Fixed per-cell tuple budget: the replay count shrinks as the fleet grows,
  // so every concurrency level streams comparable total volume and the cells
  // finish in comparable time.
  const int replays = std::max(1, env.replays / n_queries);

  std::vector<BuiltDataflow> fleet;
  fleet.reserve(n_queries);
  for (int i = 0; i < n_queries; ++i) {
    queries::QueryBuildOptions options =
        CellOptions(env, ProvenanceMode::kGenealog);
    options.scheduler = mode;  // overrides the env default
    ApplyReplays(options, replays, lr.span_s);
    fleet.push_back(queries::BuildQ1Fluent(lr.data, std::move(options)));
  }

  std::vector<Topology*> topologies;
  for (auto& q : fleet) {
    for (auto& t : q.topologies) topologies.push_back(t.get());
  }

  Runner runner(std::move(topologies));
  const int64_t t0 = NowNanos();
  runner.Start();
  runner.Join();
  const int64_t t1 = NowNanos();

  ModeResult r;
  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  uint64_t emitted = 0;
  double p99_sum = 0;
  int sampled = 0;
  for (auto& q : fleet) {
    emitted += q.source()->tuples_processed();
    r.sink_tuples += q.sink()->count();
    if (q.sink()->latency_samples() == 0) continue;
    r.latency_samples += q.sink()->latency_samples();
    p99_sum += q.sink()->latency_percentile_ms(99);
    ++sampled;
  }
  r.items_per_s = r.wall_s > 0 ? static_cast<double>(emitted) / r.wall_s : 0;
  r.p99_ms = sampled > 0 ? p99_sum / sampled : 0;
  return r;
}

int Main() {
  BenchEnv env = ReadBenchEnv();
  // The default LR workload is sized for single-query overhead benches; the
  // fleet multiplies it by the query count, so this bench runs a slimmer
  // dataset (override with GENEALOG_BENCH_SCALE as usual).
  const LrWorkload lr = MakeLrWorkload(env.scale * 0.05);
  const std::vector<int> counts =
      EnvCountList("GENEALOG_BENCH_QUERY_COUNTS", {1, 8, 64, 256});

  std::printf(
      "GeneaLog reproduction — multi-query scheduler scaling (Q1/GL)\n"
      "reports=%zu replay_budget=%d batch_size=%zu workers=%zu (0=auto)\n\n",
      lr.data.reports.size(), env.replays, env.engine.batch_size,
      env.engine.workers);

  std::vector<BenchJsonRow> rows;
  std::printf("%8s  %16s  %14s %12s %10s\n", "queries", "scheduler",
              "agg items/s", "p99 ms", "wall s");
  for (int n : counts) {
    ModeResult pool = RunFleet(lr, env, n, SchedulerMode::kPool);
    ModeResult tpn = RunFleet(lr, env, n, SchedulerMode::kThreadPerNode);
    for (const auto& [name, r] :
         {std::pair<const char*, ModeResult&>{"pool", pool},
          std::pair<const char*, ModeResult&>{"thread-per-node", tpn}}) {
      std::printf("%8d  %16s  %14.0f %12.2f %10.2f\n", n, name, r.items_per_s,
                  r.p99_ms, r.wall_s);
      CellMetrics m;
      m.throughput_tps = r.items_per_s;
      m.latency_samples = r.latency_samples;
      m.latency_p99_ms = r.p99_ms;
      m.sink_tuples = r.sink_tuples;
      rows.push_back(BenchJsonRow{"Q1x" + std::to_string(n), name, "multi",
                                  env.engine.batch_size, 1, m});
    }
    if (tpn.items_per_s > 0) {
      std::printf("%8s  %16s  %13.2fx\n", "", "pool speedup",
                  pool.items_per_s / tpn.items_per_s);
    }
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape: the pool pulls ahead as the query count exceeds\n"
      "the hardware threads, and the gap scales with core count. On a\n"
      "single-core container both modes end up compute-bound, so the win\n"
      "(~1.3-1.8x here) is thread-per-node's thread-churn and\n"
      "context-switch overhead; on multicore hardware thread-per-node\n"
      "oversubscribes the box (64 queries x ~4 nodes = 256 runnable\n"
      "threads) and the pool's >=2x shows up by 64 concurrent queries.\n");
  WriteBenchJson("multi_query", env, rows);
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
