#include "metrics.h"

#include <cstdio>

namespace edgebench {

namespace {

MetricSpec Lower(std::string name, std::string unit, double bound = 0) {
  return {std::move(name), std::move(unit), false, bound};
}
MetricSpec Higher(std::string name, std::string unit, double bound = 0) {
  return {std::move(name), std::move(unit), true, bound};
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      Higher("throughput_tps", "1/s", 0.25),
      Lower("prov_latency_p50_ms", "ms", 0.25),
      Lower("prov_bytes_per_ktuple", "B", 0.25),
      Lower("rss_peak_mb", "MB", 0.25),
      Lower("setup_s", "s", 0.25),
  };
  return specs;
}

const std::vector<std::string>& NodeKeys() {
  // Q1 intra-process (lr-intra, console, fleet), then Q4 over two
  // processing instances and one provenance instance (sg-dist).
  static const std::vector<std::string> keys = {
      "i1.source",        "i1.filter.speed0", "i1.agg.stopped",
      "i1.filter.stopped", "i1.SU",           "i1.K",
      "i1.K2",            "i1.multiplex",     "i1.agg.daily_sum",
      "i1.filter.midnight", "i1.SU.send0",    "i1.send.data0",
      "i1.send.U0",       "i1.SU.send1",      "i1.send.data1",
      "i1.send.U1",       "i2.recv.data0",    "i2.recv.data1",
      "i2.join.meter",    "i2.filter.anomaly", "i2.K",
      "i2.SU.sink",       "i2.send.U_sink",   "i3.recv.U_sink",
      "i3.recv.U0",       "i3.recv.U1",       "i3.MU",
      "i3.K2",
  };
  return keys;
}

const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "bench.generate",          "bench.rep",
      "queries.build",
      "spe.run",                 "bench.check",
      "console.request",
      "genealog.traversal.replay", "genealog.lineage.replay",
      "net.codec.replay",
  };
  return names;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        Lower("queries.build_ms", "ms"),
        Lower("spe.source.ns_per_tuple", "ns"),
        Lower("spe.source.lag_max_ms", "ms"),
        Lower("spe.drain_ms", "ms"),
    };
    for (const std::string& key : NodeKeys()) {
      s.push_back(Higher("spe.node." + key + ".tuples", "count"));
      s.push_back(Lower("spe.node." + key + ".in_full_share", "ratio"));
    }
    const std::vector<MetricSpec> rest = {
        Higher("genealog.su.traversals", "count"),
        Lower("genealog.su.traversal_mean_us", "us"),
        Lower("genealog.su.traversal_p99_us", "us"),
        Lower("genealog.su.graph_mean", "count"),
        Lower("genealog.traversal.ns_per_node", "ns"),
        Higher("genealog.prov_sink.records", "count"),
        Lower("genealog.prov_sink.origins_mean", "count"),
        Lower("genealog.prov_sink.bytes", "B"),
        Lower("genealog.lineage.ingest_ns", "ns"),
        Lower("genealog.lineage.records_retained", "count"),
        Lower("genealog.lineage.bytes_retained", "B"),
        Lower("genealog.lineage.contributors_ns", "ns"),
        Lower("genealog.service.p50_us", "us"),
        Lower("genealog.service.p99_us", "us"),
        Lower("genealog.service.errors", "count"),
        Lower("net.wire.frames", "count"),
        Lower("net.wire.raw_bytes", "B"),
        Lower("net.wire.encoded_bytes", "B"),
        Lower("net.codec.encode_ns_per_tuple", "ns"),
        Lower("net.codec.decode_ns_per_tuple", "ns"),
        Higher("common.pool.recycle_hit_rate", "ratio"),
        Lower("common.pool.slab_bytes", "B"),
        Lower("common.mem.i1.peak_mb", "MB"),
        Lower("common.mem.i2.peak_mb", "MB"),
        Lower("common.mem.i3.peak_mb", "MB"),
        Lower("trace.overhead", "ratio"),
        Higher("provenance.np_throughput_tps", "1/s"),
        Lower("provenance.gl_cost_share", "ratio"),
    };
    s.insert(s.end(), rest.begin(), rest.end());
    for (const std::string& span : SpanNames()) {
      s.push_back(Lower("trace.self_ms." + span, "ms"));
    }
    return s;
  }();
  return specs;
}

std::string CatalogueJson() {
  std::string out = "\"end_to_end\": [\n";
  const auto& e2e = EndToEndMetrics();
  char line[256];
  for (size_t i = 0; i < e2e.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                  "\"bound\": %.2f}%s\n",
                  e2e[i].name.c_str(), e2e[i].unit.c_str(),
                  e2e[i].higher_is_better ? "higher" : "lower", e2e[i].bound,
                  i + 1 < e2e.size() ? "," : "");
    out += line;
  }
  out += "],\n\"per_layer\": [\n";
  const auto& layer = PerLayerMetrics();
  for (size_t i = 0; i < layer.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"unit\": \"%s\", "
                  "\"better\": \"%s\"}%s\n",
                  layer[i].name.c_str(), layer[i].unit.c_str(),
                  layer[i].higher_is_better ? "higher" : "lower",
                  i + 1 < layer.size() ? "," : "");
    out += line;
  }
  out += "]\n";
  return out;
}

}  // namespace edgebench
