// Figure 13 — inter-process provenance overhead.
//
// The paper's 3-node deployment: two processing SPE instances plus one
// provenance instance (Figures 7/9C/10C/11C), connected here by fully
// serializing in-memory channels (set GENEALOG_BENCH_TCP=1 for TCP loopback).
// Prints the figure's metric columns with NP deltas, the per-instance memory
// split (the "darker part at the top of the bars" is instance 3), and the
// network volume each variant ships.
#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"
#include "common/stats.h"

namespace genealog::bench {
namespace {

int Main() {
  const BenchEnv env = ReadBenchEnv();
  const bool use_tcp = std::getenv("GENEALOG_BENCH_TCP") != nullptr;
  std::printf(
      "GeneaLog reproduction — Figure 13 (inter-process provenance, "
      "2 processing + 1 provenance instance)\n"
      "reps=%d scale=%.2f replays=%d transport=%s\n\n",
      env.reps, env.scale, env.replays,
      use_tcp ? "tcp-loopback" : "in-memory-serializing");

  const LrWorkload lr = MakeLrWorkload(env.scale);
  const SgWorkload sg = MakeSgWorkload(env.scale);

  const ProvenanceMode kModes[] = {ProvenanceMode::kNone,
                                   ProvenanceMode::kGenealog,
                                   ProvenanceMode::kBaseline};
  std::vector<metrics::QueryVariantResult> rows;
  std::vector<BenchJsonRow> json_rows;

  auto RunQuery = [&](const std::string& name, auto builder, const auto& data,
                      int64_t span, uint64_t source_bytes) {
    for (ProvenanceMode mode : kModes) {
      QueryFactory factory = [&data, mode, builder, span, use_tcp, &env] {
        queries::QueryBuildOptions options = CellOptions(env, mode);
        options.distributed = true;
        options.use_tcp = use_tcp;
        ApplyReplays(options, env.replays, span);
        return builder(data, std::move(options));
      };
      std::vector<CellMetrics> raw;
      rows.push_back(
          AggregateCell(name, VariantName(mode), factory, env.reps,
                        source_bytes * static_cast<uint64_t>(env.replays),
                        &raw));
      json_rows.push_back(BenchJsonRow{name, VariantName(mode), "dist",
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
                  rows, "Figure 13 — inter-process provenance overhead")
                  .c_str());

  std::printf("Per-instance memory split (avg MB: I1 + I2 [+ I3 provenance])\n");
  std::printf("--------------------------------------------------------------\n");
  for (const auto& row : rows) {
    std::printf("%-4s %-3s |", row.query.c_str(), row.variant.c_str());
    for (const auto& cell : row.per_instance_avg_mem_mb) {
      std::printf(" %8.2f", cell.mean);
    }
    std::printf("\n");
  }

  std::printf("\nNetwork volume shipped between instances (bytes)\n");
  std::printf("-------------------------------------------------\n");
  for (const auto& row : rows) {
    std::printf("%-4s %-3s | %12.0f\n", row.query.c_str(), row.variant.c_str(),
                row.network_bytes.mean);
  }
  std::printf("\n%s", metrics::RenderWireTable(rows).c_str());
  std::printf(
      "(every channel ships compact frames: delta/dictionary-encoded; raw is\n"
      " what the fixed-width reference codec would have shipped.)\n");
  std::printf(
      "\nExpected shape (paper): GL within ~3-10%% of NP; the third instance\n"
      "adds memory; BL additionally ships the entire source stream to the\n"
      "provenance node and collapses under the serialization cost.\n");
  std::printf("%s\n", metrics::RenderProvenanceVolumeTable(rows).c_str());
  WriteBenchJson("fig13_inter", env, json_rows);
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
