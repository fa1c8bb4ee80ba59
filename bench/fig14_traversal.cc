// Figure 14 — contribution-graph traversal cost.
//
// Average wall-clock time of findProvenance (Listing 1) per sink tuple, for
// the intra-process deployment (one SU before the Sink) and the inter-process
// deployment (one SU per delivering stream, reported per SPE instance; the
// graphs are larger closer to the sources, smaller at the sink side).
#include <cstdio>
#include <map>

#include "bench/harness.h"
#include "common/stats.h"

namespace genealog::bench {
namespace {

struct TraversalRow {
  std::string query;
  // instance id -> (mean traversal ms, mean graph size)
  std::map<int, std::pair<RunStats, RunStats>> by_instance;
  std::vector<CellMetrics> cells;  // raw repetitions, for BENCH_fig14.json
};

TraversalRow RunTraversal(const std::string& name, const QueryFactory& factory,
                          int reps) {
  TraversalRow row;
  row.query = name;
  for (int rep = 0; rep < reps; ++rep) {
    CellMetrics cell = RunCell(factory);
    for (size_t i = 0; i < cell.traversal_ms_by_instance.size(); ++i) {
      const auto& [instance, ms] = cell.traversal_ms_by_instance[i];
      row.by_instance[instance].first.Add(ms);
      row.by_instance[instance].second.Add(cell.graph_size_by_instance[i].second);
    }
    row.cells.push_back(std::move(cell));
  }
  return row;
}

int Main() {
  const BenchEnv env = ReadBenchEnv();
  std::printf(
      "GeneaLog reproduction — Figure 14 (contribution graph traversal time "
      "per sink tuple)\nreps=%d scale=%.2f replays=%d\n\n",
      env.reps, env.scale, env.replays);

  const LrWorkload lr = MakeLrWorkload(env.scale);
  const SgWorkload sg = MakeSgWorkload(env.scale);

  auto Factory = [&env](auto builder, const auto& data, int64_t span,
                        bool distributed) {
    return QueryFactory([&data, builder, span, distributed, &env] {
      queries::QueryBuildOptions options =
          CellOptions(env, ProvenanceMode::kGenealog);
      options.distributed = distributed;
      ApplyReplays(options, env.replays, span);
      return builder(data, std::move(options));
    });
  };

  std::vector<BenchJsonRow> json_rows;
  auto Record = [&](const std::string& query, const char* deployment,
                    const TraversalRow& row) {
    BenchJsonRow jr;
    jr.query = query;
    jr.variant = "GL";
    jr.deployment = deployment;
    jr.batch_size = env.engine.batch_size;
    jr.reps = env.reps;
    jr.mean = MeanCells(row.cells);
    json_rows.push_back(std::move(jr));
  };

  std::printf("Intra-process (single SU before the sink)\n");
  std::printf("query | traversal(ms)  mean-graph-size\n");
  std::printf("---------------------------------------\n");
  std::vector<std::pair<std::string, QueryFactory>> intra{
      {"Q1", Factory(queries::BuildQ1Fluent, lr.data, lr.span_s, false)},
      {"Q2", Factory(queries::BuildQ2Fluent, lr.data, lr.span_s, false)},
      {"Q3", Factory(queries::BuildQ3Fluent, sg.data, sg.span_hours, false)},
      {"Q4", Factory(queries::BuildQ4Fluent, sg.data, sg.span_hours, false)},
  };
  for (auto& [name, factory] : intra) {
    TraversalRow row = RunTraversal(name, factory, env.reps);
    for (auto& [instance, stats] : row.by_instance) {
      std::printf("%-5s | %10.4f     %10.1f\n", name.c_str(),
                  stats.first.mean(), stats.second.mean());
    }
    Record(name, "intra", row);
    std::fflush(stdout);
  }

  std::printf(
      "\nInter-process (per SPE instance; instance 1 = source side, "
      "instance 2 = sink side)\n");
  std::printf("query | instance | traversal(ms)  mean-graph-size\n");
  std::printf("--------------------------------------------------\n");
  std::vector<std::pair<std::string, QueryFactory>> inter{
      {"Q1", Factory(queries::BuildQ1Fluent, lr.data, lr.span_s, true)},
      {"Q2", Factory(queries::BuildQ2Fluent, lr.data, lr.span_s, true)},
      {"Q3", Factory(queries::BuildQ3Fluent, sg.data, sg.span_hours, true)},
      {"Q4", Factory(queries::BuildQ4Fluent, sg.data, sg.span_hours, true)},
  };
  for (auto& [name, factory] : inter) {
    TraversalRow row = RunTraversal(name, factory, env.reps);
    for (auto& [instance, stats] : row.by_instance) {
      std::printf("%-5s | %8d | %10.4f     %10.1f\n", name.c_str(), instance,
                  stats.first.mean(), stats.second.mean());
    }
    Record(name, "dist", row);
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape (paper): sub-millisecond traversals except Q3's\n"
      "hundreds-of-tuples graphs (~1.6 ms on Odroid); in the distributed\n"
      "case each instance traverses a smaller piece, and instance 1 (closer\n"
      "to the sources) sees larger graphs than instance 2.\n");
  WriteBenchJson("fig14", env, json_rows);
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
