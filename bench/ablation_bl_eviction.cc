// Ablation — baseline eviction.
//
// BL with an oracle event-time eviction horizon vs the paper's unbounded
// store: even with perfect eviction BL keeps losing on annotation cost,
// isolating "storage blow-up" from "annotation cost".
#include <cstdio>

#include "bench/harness.h"

namespace genealog::bench {
namespace {

int Main() {
  const BenchEnv env = ReadBenchEnv();
  std::printf(
      "GeneaLog reproduction — ablation (BL eviction)\n"
      "reps=%d scale=%.2f replays=%d\n\n",
      env.reps, env.scale, env.replays);

  const LrWorkload lr = MakeLrWorkload(env.scale);
  const lr::LinearRoadData& lr_data = lr.data;
  const uint64_t lr_bytes = lr.bytes * static_cast<uint64_t>(env.replays);
  const int64_t lr_span = lr.span_s;

  QueryFactory np = [&lr_data, lr_span, &env] {
    queries::QueryBuildOptions options;
    ApplyReplays(options, env.replays, lr_span);
    return queries::BuildQ1Fluent(lr_data, std::move(options));
  };
  std::vector<metrics::QueryVariantResult> rows;
  rows.push_back(AggregateCell("Q1", "NP", np, env.reps, lr_bytes));
  for (bool evict : {false, true}) {
    QueryFactory factory = [&lr_data, evict, lr_span, &env] {
      queries::QueryBuildOptions options;
      options.mode = ProvenanceMode::kBaseline;
      options.baseline_oracle_eviction = evict;
      ApplyReplays(options, env.replays, lr_span);
      return queries::BuildQ1Fluent(lr_data, std::move(options));
    };
    rows.push_back(AggregateCell("Q1", evict ? "BLe" : "BL", factory,
                                    env.reps, lr_bytes));
    std::printf("  done Q1/%s\n", evict ? "BLe" : "BL");
    std::fflush(stdout);
  }
  std::printf("\n%s\n",
              metrics::RenderOverheadTable(
                  rows,
                  "Baseline with unbounded store (BL) vs oracle eviction "
                  "(BLe), Q1 intra-process")
                  .c_str());
  std::printf(
      "Expected shape: oracle eviction bounds BL's memory but not its\n"
      "annotation cost.\n");
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
