// Figure 12 — intra-process provenance overhead.
//
// Runs Q1–Q4, each in NP (no provenance), GL (GeneaLog) and BL (Ariadne-style
// baseline), deployed in a single SPE instance, and prints the figure's four
// metric columns (throughput, latency, average memory, maximum memory) with
// percentage deltas against NP, plus the provenance-volume ratio the paper
// quotes in §7 (0.003%–0.5% of source volume).
#include <cstdio>

#include "bench/harness.h"
#include "common/stats.h"

namespace genealog::bench {
namespace {

int Main() {
  const BenchEnv env = ReadBenchEnv();
  std::printf(
      "GeneaLog reproduction — Figure 12 (intra-process provenance)\n"
      "reps=%d scale=%.2f replays=%d batch_size=%zu\n\n",
      env.reps, env.scale, env.replays, env.engine.batch_size);

  const LrWorkload lr = MakeLrWorkload(env.scale);
  const SgWorkload sg = MakeSgWorkload(env.scale);
  std::printf(
      "workloads (per run): LR %zu reports x%d, SG %zu readings x%d\n\n",
      lr.data.reports.size(), env.replays, sg.data.readings.size(),
      env.replays);

  const ProvenanceMode kModes[] = {ProvenanceMode::kNone,
                                   ProvenanceMode::kGenealog,
                                   ProvenanceMode::kBaseline};
  std::vector<metrics::QueryVariantResult> rows;
  std::vector<BenchJsonRow> json_rows;

  auto RunQuery = [&](const std::string& name, auto builder, const auto& data,
                      int64_t span, uint64_t source_bytes) {
    for (ProvenanceMode mode : kModes) {
      QueryFactory factory = [&data, mode, builder, span, &env] {
        queries::QueryBuildOptions options = CellOptions(env, mode);
        ApplyReplays(options, env.replays, span);
        return builder(data, std::move(options));
      };
      std::vector<CellMetrics> raw;
      rows.push_back(
          AggregateCell(name, VariantName(mode), factory, env.reps,
                        source_bytes * static_cast<uint64_t>(env.replays),
                        &raw));
      json_rows.push_back(BenchJsonRow{name, VariantName(mode), "intra",
                                       env.engine.batch_size, env.reps,
                                       MeanCells(raw)});
      std::printf("  done %s/%s\n", name.c_str(), VariantName(mode));
      std::fflush(stdout);
    }
  };

  RunQuery("Q1", queries::BuildQ1Fluent, lr.data, lr.span_s, lr.bytes);
  RunQuery("Q2", queries::BuildQ2Fluent, lr.data, lr.span_s, lr.bytes);
  RunQuery("Q3", queries::BuildQ3Fluent, sg.data, sg.span_hours, sg.bytes);
  RunQuery("Q4", queries::BuildQ4Fluent, sg.data, sg.span_hours, sg.bytes);

  std::printf("\n%s\n",
              metrics::RenderOverheadTable(
                  rows, "Figure 12 — intra-process provenance overhead")
                  .c_str());
  std::printf("%s\n", metrics::RenderProvenanceVolumeTable(rows).c_str());
  std::printf(
      "Expected shape (paper): GL within ~4-14%% of NP on throughput/latency\n"
      "with small memory overhead; BL an order of magnitude slower with\n"
      "runaway memory (its store retains the whole source stream).\n");
  WriteBenchJson("fig12_intra", env, json_rows);
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
