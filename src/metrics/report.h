// Result aggregation and table rendering for the benchmark harnesses.
//
// The benches reproduce the *rows* behind the paper's bar charts: for each
// (query, variant) cell they print the metric value and the percentage delta
// against the NP (no-provenance) reference, matching the annotations in
// Figures 12 and 13.
#ifndef GENEALOG_METRICS_REPORT_H_
#define GENEALOG_METRICS_REPORT_H_

#include <optional>
#include <string>
#include <vector>

#include "genealog/lineage_store.h"

namespace genealog {
struct ServeStats;  // genealog/lineage_service.h
struct WireStats;   // net/frame.h
}  // namespace genealog

namespace genealog::metrics {

// One experiment cell, averaged over repetitions. A cell with no runs has
// no reading (e.g. latency when the sink recorded no samples): tables print
// it as n/a, never as 0.
struct CellStats {
  double mean = 0;
  double ci95 = 0;
  int runs = 0;

  bool present() const { return runs > 0; }
};

struct QueryVariantResult {
  std::string query;    // "Q1".."Q4"
  std::string variant;  // "NP" / "GL" / "BL"
  CellStats throughput_tps;
  CellStats latency_ms;
  CellStats avg_mem_mb;
  CellStats max_mem_mb;
  // Extras (zero when not applicable):
  CellStats provenance_records;
  CellStats provenance_bytes;
  CellStats source_bytes;
  CellStats network_bytes;
  // Wire-codec accounting over every inter-instance channel: frames shipped,
  // the bytes the raw reference codec would have cost, and the compact
  // bytes actually shipped (net/frame.h WireStats).
  CellStats wire_frames;
  CellStats wire_raw_bytes;
  CellStats wire_encoded_bytes;
  std::vector<CellStats> per_instance_avg_mem_mb;
  std::vector<CellStats> per_instance_max_mem_mb;
};

// Renders the Figure-12/13-style table: one block per query, one row per
// variant, columns throughput / latency / avg mem / max mem with % deltas
// against the NP row of the same query. Absent cells print n/a, no delta.
std::string RenderOverheadTable(const std::vector<QueryVariantResult>& rows,
                                const std::string& title);

// Renders the provenance-volume ratio (provenance bytes vs source bytes, §7:
// "ranging from 0.003% to 0.5%").
std::string RenderProvenanceVolumeTable(
    const std::vector<QueryVariantResult>& rows);

// Renders the per-variant wire-codec accounting: frames, raw vs encoded
// bytes-on-wire and the compression ratio. Rows that shipped nothing are
// skipped.
std::string RenderWireTable(const std::vector<QueryVariantResult>& rows);

// Helper: percentage delta string like "-3.7%" (empty for the reference row).
std::string FormatDelta(double value, std::optional<double> reference,
                        bool higher_is_worse);

// --- counter tables ---------------------------------------------------------
// The one rendering idiom for the engine's counter bundles — lineage-store
// stats, wire-codec accounting and the lineage service's ServeStats all go
// through RenderCounterTable instead of each growing its own printf block.
// Values are preformatted strings so every caller controls its own units.

struct CounterRow {
  std::string label;
  std::string value;
};

// Renders `rows` as an aligned two-column block under `title`.
std::string RenderCounterTable(const std::string& title,
                               const std::vector<CounterRow>& rows);

// Row builders for the shared renderer.
std::vector<CounterRow> LineageStatsRows(const LineageStore::Stats& s);
std::vector<CounterRow> WireStatsRows(const WireStats& s);
std::vector<CounterRow> ServeStatsRows(const ServeStats& s);

}  // namespace genealog::metrics

#endif  // GENEALOG_METRICS_REPORT_H_
