// Ablation — key-partitioned operator parallelism (challenge C3).
//
// The paper argues that building provenance from standard operators lets it
// reuse standard parallelization techniques. This bench scales a grouped
// windowed aggregation (GL provenance active) across 1..8 partitioned
// instances, in two regimes:
//
//  * cheap combiner (daily sum) — per-tuple queue/communication cost
//    dominates, so partitioning only adds hops: parallelism *hurts*. This is
//    the regime the paper's chaining remark (§2) is about.
//  * heavy combiner (kernel-density anomaly scoring over weekly windows, a
//    deliberately CPU-bound analytic) — window computation dominates and
//    shards across partitions: parallelism wins.
//
// Both regimes produce identical results at any parallelism (test-enforced
// in spe/parallel_test.cc and the dataflow determinism suites).
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "common/stats.h"
#include "spe/dataflow.h"

namespace genealog::bench {
namespace {

using sg::DailyConsumption;
using sg::MeterReading;

AggregateCombiner<MeterReading, DailyConsumption, int64_t> CheapSum() {
  return [](const WindowView<MeterReading, int64_t>& w) {
    double sum = 0;
    for (const auto& t : w.tuples) sum += t->cons;
    return MakeTuple<DailyConsumption>(0, w.key, sum);
  };
}

// Kernel-density anomaly score: for each reading, its average Gaussian
// similarity to every other reading in the window, across several
// bandwidths; the window score is the minimum density (the most anomalous
// reading). O(bandwidths * n^2) exp() calls per window.
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

// One GL run: a single Aggregate at parallelism 1, otherwise the fluent
// key-partitioned stage `.KeyBy(meter).Parallel(n).Aggregate(...)`; the
// dataflow weaves the SU and provenance sink either way.
double RunOnce(const SgWorkload& workload, int replays, int parallelism,
               int64_t ws,
               AggregateCombiner<MeterReading, DailyConsumption, int64_t>
                   combiner) {
  DataflowOptions options;
  options.mode = ProvenanceMode::kGenealog;
  Dataflow df(options);
  SourceOptions so;
  so.replays = replays;
  so.replay_ts_shift = workload.span_hours;
  Stream<MeterReading> readings =
      df.Source<MeterReading>("source", workload.data.readings, so);
  auto key_fn = [](const MeterReading& r) { return r.meter_id; };
  const AggregateOptions agg_options{ws, ws};
  Stream<DailyConsumption> scores =
      parallelism <= 1
          ? readings.Aggregate<DailyConsumption>("agg", agg_options, key_fn,
                                                 combiner)
          : readings.KeyBy(key_fn)
                .Parallel(parallelism)
                .Aggregate<DailyConsumption>("par", agg_options, combiner);
  scores.Sink("sink");
  BuiltDataflow flow = df.Build();
  flow.Run();
  const SourceNodeBase* source = flow.source();
  return static_cast<double>(source->tuples_processed()) /
         (static_cast<double>(source->active_ns()) / 1e9);
}

void RunRegime(const char* title, const SgWorkload& workload, int replays,
               int reps, int64_t ws,
               AggregateCombiner<MeterReading, DailyConsumption, int64_t>
                   combiner) {
  std::printf("%s\n", title);
  std::printf("parallelism |  tput(t/s) | speedup\n");
  std::printf("-----------------------------------\n");
  double baseline = 0;
  for (int parallelism : {1, 2, 4, 8}) {
    RunStats tput;
    for (int rep = 0; rep < reps; ++rep) {
      tput.Add(RunOnce(workload, replays, parallelism, ws, combiner));
    }
    if (parallelism == 1) baseline = tput.mean();
    std::printf("%11d | %10.0f | %5.2fx\n", parallelism, tput.mean(),
                baseline > 0 ? tput.mean() / baseline : 0.0);
  }
  std::printf("\n");
}

int Main() {
  const BenchEnv env = ReadBenchEnv();
  std::printf(
      "GeneaLog reproduction — ablation: key-partitioned parallel Aggregate "
      "(C3), GL provenance active\nreps=%d scale=%.2f replays=%d\n\n",
      env.reps, env.scale, env.replays);
  const SgWorkload workload = MakeSgWorkload(env.scale);

  RunRegime("Regime A — cheap combiner (daily sum): communication-bound",
            workload, env.replays, env.reps, /*ws=*/24, CheapSum());
  RunRegime(
      "Regime B — heavy combiner (weekly kernel-density anomaly score): "
      "compute-bound",
      workload, std::max(1, env.replays / 4), env.reps, /*ws=*/168, HeavyKde());

  std::printf(
      "Reading: partitioning pays exactly when operator work dominates the\n"
      "per-tuple communication cost — the same trade-off behind the paper's\n"
      "operator-chaining remark (§2). Provenance instrumentation shards\n"
      "cleanly either way (each tuple has one stateful consumer, preserving\n"
      "the N-chain argument), and results are identical at any parallelism\n"
      "(test-enforced).\n");
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
