// Ablation — fused vs composed provenance operators, and baseline eviction.
//
//  (a) SU/MU as single fused operators vs the literal standard-operator
//      compositions of Figures 5B and 8 (challenge C3 demonstrates the
//      compositions are *possible*; this bench quantifies what fusing them
//      into one thread saves, the optimization §5.1 recommends).
//  (b) BL with an oracle event-time eviction horizon vs the paper's
//      unbounded store: even with perfect eviction BL keeps losing on
//      annotation cost, isolating "storage blow-up" from "annotation cost".
#include <cstdio>

#include "bench/harness.h"

namespace genealog::bench {
namespace {

int Main() {
  const BenchEnv env = ReadBenchEnv();
  std::printf(
      "GeneaLog reproduction — ablations (fused vs composed unfolders; BL "
      "eviction)\nreps=%d scale=%.2f replays=%d\n\n",
      env.reps, env.scale, env.replays);

  const LrWorkload lr = MakeLrWorkload(env.scale);
  const lr::LinearRoadData& lr_data = lr.data;
  const uint64_t lr_bytes = lr.bytes * static_cast<uint64_t>(env.replays);
  const int64_t lr_span = lr.span_s;

  std::vector<metrics::QueryVariantResult> rows;

  auto AddRow = [&](const std::string& query, const std::string& variant,
                    bool distributed, bool composed) {
    QueryFactory factory = [&lr_data, distributed, composed, lr_span, &env] {
      queries::QueryBuildOptions options;
      options.mode = ProvenanceMode::kGenealog;
      options.distributed = distributed;
      options.composed_unfolders = composed;
      ApplyReplays(options, env.replays, lr_span);
      return queries::BuildQ1Fluent(lr_data, std::move(options));
    };
    rows.push_back(
        AggregateCell(query, variant, factory, env.reps, lr_bytes));
    std::printf("  done %s/%s\n", query.c_str(), variant.c_str());
    std::fflush(stdout);
  };

  // NP references so the table shows overhead deltas.
  QueryFactory np_intra = [&lr_data, lr_span, &env] {
    queries::QueryBuildOptions options;
    ApplyReplays(options, env.replays, lr_span);
    return queries::BuildQ1Fluent(lr_data, std::move(options));
  };
  rows.push_back(AggregateCell("Q1i", "NP", np_intra, env.reps, lr_bytes));
  AddRow("Q1i", "GLf", /*distributed=*/false, /*composed=*/false);
  AddRow("Q1i", "GLc", /*distributed=*/false, /*composed=*/true);

  QueryFactory np_dist = [&lr_data, lr_span, &env] {
    queries::QueryBuildOptions options;
    options.distributed = true;
    ApplyReplays(options, env.replays, lr_span);
    return queries::BuildQ1Fluent(lr_data, std::move(options));
  };
  rows.push_back(AggregateCell("Q1d", "NP", np_dist, env.reps, lr_bytes));
  AddRow("Q1d", "GLf", /*distributed=*/true, /*composed=*/false);
  AddRow("Q1d", "GLc", /*distributed=*/true, /*composed=*/true);

  std::printf("\n%s\n",
              metrics::RenderOverheadTable(
                  rows,
                  "Ablation A — fused (GLf) vs composed Figure-5B/8 (GLc) "
                  "unfolders, Q1 intra (Q1i) and distributed (Q1d)")
                  .c_str());

  // --- BL eviction ablation --------------------------------------------------
  std::vector<metrics::QueryVariantResult> bl_rows;
  bl_rows.push_back(AggregateCell("Q1", "NP", np_intra, env.reps, lr_bytes));
  for (bool evict : {false, true}) {
    QueryFactory factory = [&lr_data, evict, lr_span, &env] {
      queries::QueryBuildOptions options;
      options.mode = ProvenanceMode::kBaseline;
      options.baseline_oracle_eviction = evict;
      ApplyReplays(options, env.replays, lr_span);
      return queries::BuildQ1Fluent(lr_data, std::move(options));
    };
    bl_rows.push_back(AggregateCell("Q1", evict ? "BLe" : "BL", factory,
                                    env.reps, lr_bytes));
    std::printf("  done Q1/%s\n", evict ? "BLe" : "BL");
    std::fflush(stdout);
  }
  std::printf("\n%s\n",
              metrics::RenderOverheadTable(
                  bl_rows,
                  "Ablation B — baseline with unbounded store (BL) vs oracle "
                  "eviction (BLe), Q1 intra-process")
                  .c_str());
  std::printf(
      "Expected shape: composition costs extra queue hops and copies but is\n"
      "semantically identical (the equivalence is test-enforced); oracle\n"
      "eviction bounds BL's memory but not its annotation cost.\n");
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
