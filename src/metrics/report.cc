#include "metrics/report.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>

#include "genealog/lineage_service.h"
#include "net/frame.h"

namespace genealog::metrics {
namespace {

std::string FmtU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FmtI64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string FmtCell(const CellStats& c, const char* format) {
  if (!c.present()) return "n/a";
  std::string s = Fmt(format, c.mean);
  if (c.runs > 1 && c.ci95 > 0) {
    s += " ±" + Fmt(format, c.ci95);
  }
  return s;
}

}  // namespace

std::string FormatDelta(double value, std::optional<double> reference,
                        bool /*higher_is_worse*/) {
  if (!reference.has_value() || *reference == 0.0) return "";
  const double delta = (value - *reference) / *reference * 100.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", delta);
  return buf;
}

std::string RenderOverheadTable(const std::vector<QueryVariantResult>& rows,
                                const std::string& title) {
  // Index NP references per query.
  std::map<std::string, const QueryVariantResult*> np;
  for (const auto& r : rows) {
    if (r.variant == "NP") np[r.query] = &r;
  }

  std::string out;
  out += title + "\n";
  out += std::string(title.size(), '=') + "\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-4s %-3s | %15s %8s | %12s %8s | %11s %8s | %11s %8s\n",
                "qry", "var", "tput(t/s)", "d%", "latency(ms)", "d%",
                "avg_mem(MB)", "d%", "max_mem(MB)", "d%");
  out += line;
  out += std::string(120, '-') + "\n";

  for (const auto& r : rows) {
    const QueryVariantResult* ref =
        np.count(r.query) != 0 && r.variant != "NP" ? np[r.query] : nullptr;
    // Delta of one column against the NP row; empty when either is absent.
    auto delta = [&r, ref](CellStats QueryVariantResult::*column) {
      if (ref == nullptr || !(r.*column).present() ||
          !(ref->*column).present()) {
        return std::string();
      }
      return FormatDelta((r.*column).mean, (ref->*column).mean, false);
    };
    std::snprintf(
        line, sizeof(line),
        "%-4s %-3s | %15s %8s | %12s %8s | %11s %8s | %11s %8s\n",
        r.query.c_str(), r.variant.c_str(),
        FmtCell(r.throughput_tps, "%.0f").c_str(),
        delta(&QueryVariantResult::throughput_tps).c_str(),
        FmtCell(r.latency_ms, "%.2f").c_str(),
        delta(&QueryVariantResult::latency_ms).c_str(),
        FmtCell(r.avg_mem_mb, "%.2f").c_str(),
        delta(&QueryVariantResult::avg_mem_mb).c_str(),
        FmtCell(r.max_mem_mb, "%.2f").c_str(),
        delta(&QueryVariantResult::max_mem_mb).c_str());
    out += line;
  }
  return out;
}

std::string RenderProvenanceVolumeTable(
    const std::vector<QueryVariantResult>& rows) {
  std::string out;
  out += "Provenance volume vs. source volume (paper: 0.003%..0.5%)\n";
  out += "----------------------------------------------------------\n";
  char line[256];
  for (const auto& r : rows) {
    if (r.provenance_bytes.mean <= 0 || r.source_bytes.mean <= 0) continue;
    std::snprintf(line, sizeof(line),
                  "%-4s %-3s | provenance %10.0f B | source %12.0f B | ratio %8.4f%%\n",
                  r.query.c_str(), r.variant.c_str(), r.provenance_bytes.mean,
                  r.source_bytes.mean,
                  r.provenance_bytes.mean / r.source_bytes.mean * 100.0);
    out += line;
  }
  return out;
}

std::string RenderWireTable(const std::vector<QueryVariantResult>& rows) {
  std::string out;
  out += "Bytes-on-wire per variant (raw-codec equivalent vs shipped)\n";
  out += "-----------------------------------------------------------\n";
  char line[256];
  for (const auto& r : rows) {
    if (r.wire_encoded_bytes.mean <= 0) continue;
    std::snprintf(line, sizeof(line),
                  "%-4s %-3s | frames %10.0f | raw %12.0f B | wire %12.0f B "
                  "| ratio %6.2fx\n",
                  r.query.c_str(), r.variant.c_str(), r.wire_frames.mean,
                  r.wire_raw_bytes.mean, r.wire_encoded_bytes.mean,
                  r.wire_raw_bytes.mean / r.wire_encoded_bytes.mean);
    out += line;
  }
  return out;
}

std::string RenderCounterTable(const std::string& title,
                               const std::vector<CounterRow>& rows) {
  size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row.label.size());
  std::string out;
  out += title + "\n";
  out += std::string(title.size(), '-') + "\n";
  char line[256];
  for (const auto& row : rows) {
    std::snprintf(line, sizeof(line), "%-*s  %s\n", static_cast<int>(width),
                  row.label.c_str(), row.value.c_str());
    out += line;
  }
  return out;
}

std::vector<CounterRow> LineageStatsRows(const LineageStore::Stats& s) {
  std::vector<CounterRow> rows = {
      {"records ingested", FmtU64(s.records_ingested)},
      {"records retained", FmtU64(s.records_retained)},
      {"records evicted", FmtU64(s.records_evicted)},
      {"tuples retained", FmtU64(s.tuples_retained)},
      {"edges retained", FmtU64(s.edges_retained)},
      {"bytes retained", FmtU64(s.bytes_retained)},
      {"node uids", FmtU64(s.node_uids)},
      {"epochs evicted", FmtU64(s.epochs_evicted)},
  };
  if (s.min_retained_ts <= s.max_retained_ts) {
    rows.push_back({"min retained ts", FmtI64(s.min_retained_ts)});
    rows.push_back({"max retained ts", FmtI64(s.max_retained_ts)});
  }
  return rows;
}

std::vector<CounterRow> WireStatsRows(const WireStats& s) {
  std::vector<CounterRow> rows = {
      {"frames", FmtU64(s.frames)},
      {"raw bytes", FmtU64(s.raw_bytes)},
      {"encoded bytes", FmtU64(s.encoded_bytes)},
  };
  if (s.encoded_bytes > 0) {
    rows.push_back(
        {"ratio", Fmt("%.2fx", static_cast<double>(s.raw_bytes) /
                                   static_cast<double>(s.encoded_bytes))});
  }
  return rows;
}

std::vector<CounterRow> ServeStatsRows(const ServeStats& s) {
  return {
      {"connections", FmtU64(s.connections)},
      {"requests", FmtU64(s.requests)},
      {"errors", FmtU64(s.errors)},
      {"bytes received", FmtU64(s.bytes_received)},
      {"bytes sent", FmtU64(s.bytes_sent)},
      {"latency p50 (us)", Fmt("%.1f", s.latency_p50_us)},
      {"latency p99 (us)", Fmt("%.1f", s.latency_p99_us)},
  };
}

}  // namespace genealog::metrics
