// Wire-codec micro + end-to-end bytes-on-wire bench.
//
// Part 1 (micro): a synthetic GL U stream — UnfoldedTuples pairing an
// aggregate output with its originating position reports, four sharing each
// derived object as an SU emits them, ids shaped like the instrumented
// engine's (node uid high 24 bits | sequence low 40) — is pushed through
// FrameEncoder/FrameDecoder per codec, measuring encode and decode ns/tuple
// and bytes-on-wire.
//
// Part 2 (end-to-end): Q1 runs once in the paper's distributed GL
// deployment, whose channels all carry compact frames; the per-channel
// WireStats give total and U-stream bytes-on-wire, shipped and raw-codec
// equivalent (net_frame_codec_test pins the raw-equivalent count to what the
// raw encoder ships). Its provenance file is compared canonically with a
// single-instance GL Q1 run's — the wire must be invisible in the decoded
// provenance. Results land in BENCH_wire.json. The binary fails (and with it
// CI bench-smoke) when the end-to-end U-stream ratio or the micro's compact
// ratio falls below 2x, or when the decoded provenance differs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/wall_clock.h"
#include "genealog/provenance_record.h"
#include "genealog/pull.h"
#include "genealog/unfolded.h"
#include "net/frame.h"

namespace genealog::bench {
namespace {

std::vector<TuplePtr> MakeUStream(const lr::LinearRoadData& data, size_t n) {
  // The shape SuNode::UnfoldOne produces: each derived (aggregate) tuple is
  // unfolded into kOrigins U tuples that all hold the same derived object,
  // one per originating position report. Derived tuples come from one node
  // (uid), origins from another — what the per-uid delta coder sees in a
  // real deployment.
  constexpr uint64_t kDerivedUid = 12;
  constexpr uint64_t kOriginUid = 7;
  constexpr size_t kOrigins = 4;
  std::vector<TuplePtr> out;
  out.reserve(n);
  TuplePtr derived;
  for (size_t i = 0; i < n; ++i) {
    const auto& report = data.reports[i % data.reports.size()];
    if (i % kOrigins == 0) {
      derived = MakeTuple<lr::StoppedCarStats>(
          report->ts, report->car_id, 4, report->pos, report->pos);
      derived->id = (kDerivedUid << 40) | (i / kOrigins + 1);
      derived->kind = TupleKind::kAggregate;
      derived->stimulus = report->ts * 1000;
    }
    auto u = MakeTuple<UnfoldedTuple>(derived->ts);
    auto origin = MakeTuple<lr::PositionReport>(report->ts, report->car_id,
                                                report->speed, report->pos);
    origin->id = (kOriginUid << 40) | (i + 1);
    u->derived = derived;
    u->derived_id = derived->id;
    u->derived_ts = derived->ts;
    u->origin = origin;
    u->origin_id = origin->id;
    u->origin_ts = origin->ts;
    u->origin_kind = TupleKind::kSource;
    u->id = (kDerivedUid << 40) | (i + 1);
    u->kind = TupleKind::kMultiplex;
    u->stimulus = derived->stimulus;
    out.push_back(u);
  }
  return out;
}

struct MicroResult {
  double encode_ns_per_tuple = 0;
  double decode_ns_per_tuple = 0;
  uint64_t raw_bytes = 0;
  uint64_t encoded_bytes = 0;

  double ratio() const {
    return encoded_bytes == 0
               ? 1.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(encoded_bytes);
  }
};

MicroResult RunMicro(WireCodec codec, const std::vector<TuplePtr>& u,
                     size_t batch_size) {
  FrameEncoder encoder(codec);
  std::vector<std::vector<uint8_t>> frames;
  const int64_t enc_start = NowNanos();
  for (size_t i = 0; i < u.size(); i += batch_size) {
    const size_t n = std::min(batch_size, u.size() - i);
    for (auto& frame : encoder.EncodeBatch(
             std::span<const TuplePtr>(u.data() + i, n),
             /*watermark=*/u[i + n - 1]->ts, /*remotify=*/true)) {
      frames.push_back(std::move(frame));
    }
  }
  const int64_t enc_end = NowNanos();

  FrameDecoder decoder;
  size_t decoded = 0;
  const int64_t dec_start = NowNanos();
  for (const auto& frame : frames) {
    DecodedFrame d = decoder.Decode(frame);
    decoded += d.tuples.size();
  }
  const int64_t dec_end = NowNanos();
  if (decoded != u.size()) {
    std::fprintf(stderr, "round-trip mismatch: %zu != %zu\n", decoded,
                 u.size());
    std::exit(1);
  }

  MicroResult r;
  const double n = static_cast<double>(u.size());
  r.encode_ns_per_tuple = static_cast<double>(enc_end - enc_start) / n;
  r.decode_ns_per_tuple = static_cast<double>(dec_end - dec_start) / n;
  r.raw_bytes = encoder.stats().raw_bytes;
  r.encoded_bytes = encoder.stats().encoded_bytes;
  return r;
}

struct E2eResult {
  WireStats total;
  // The GL provenance streams: the Send nodes named send.U* (the derived
  // stream), the pulled U streams' servers and their requests.
  WireStats u_stream;
  std::vector<std::vector<uint8_t>> canonical_provenance;
};

// Q1 GL, distributed (3 instances) or in one instance.
E2eResult RunQ1(const BenchEnv& env, const LrWorkload& lr, bool distributed,
                const std::string& prov_file) {
  queries::QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.distributed = distributed;
  options.engine() = env.engine;
  options.provenance_file = prov_file;
  ApplyReplays(options, env.replays, lr.span_s);
  BuiltDataflow q = queries::BuildQ1Fluent(lr.data, std::move(options));
  q.Run();

  E2eResult r;
  r.total = q.wire_stats();
  for (const SendNode* s : q.send_nodes) {
    if (s->name().rfind("send.U", 0) == 0) r.u_stream += s->wire_stats();
  }
  for (const UServeNode* s : q.u_servers) r.u_stream += s->wire_stats();
  if (q.u_demand != nullptr) r.u_stream += q.u_demand->wire_stats();
  r.canonical_provenance = CanonicalProvenanceRecords(prov_file);
  return r;
}

int Main() {
  const BenchEnv env = ReadBenchEnv();
  std::printf(
      "GeneaLog reproduction — wire codec (compact vs raw bytes-on-wire)\n"
      "reps=%d scale=%.2f replays=%d batch=%zu\n\n",
      env.reps, env.scale, env.replays, env.engine.batch_size);

  const LrWorkload lr = MakeLrWorkload(env.scale);

  // --- micro: synthetic U stream through the codecs -------------------------
  const size_t micro_tuples = 20'000;
  const size_t batch = std::max<size_t>(env.engine.batch_size, 1);
  const std::vector<TuplePtr> u = MakeUStream(lr.data, micro_tuples);

  struct MicroRow {
    const char* name;
    WireCodec codec;
    MicroResult result;
  };
  std::vector<MicroRow> micro = {
      {"raw", WireCodec::kRaw, {}},
      {"compact", WireCodec::kCompact, {}},
  };
  std::printf("U-stream micro (%zu tuples, batch %zu)\n", micro_tuples, batch);
  std::printf("---------------------------------------------------------\n");
  for (MicroRow& row : micro) {
    // Warm-up pass (page-in, dictionaries), then the measured pass.
    RunMicro(row.codec, u, batch);
    row.result = RunMicro(row.codec, u, batch);
    std::printf(
        "%-10s | encode %7.1f ns/t | decode %7.1f ns/t | %9llu B | %5.2fx\n",
        row.name, row.result.encode_ns_per_tuple,
        row.result.decode_ns_per_tuple,
        static_cast<unsigned long long>(row.result.encoded_bytes),
        row.result.ratio());
  }

  // The compact ratio is the codec's structural coding (each derived tuple
  // once per frame, dictionary-coded nested headers), so a regression to
  // per-tuple nested payloads shows here.
  const double micro_compact_ratio = micro[1].result.ratio();
  std::printf("U-stream micro compact reduction: %.2fx (target >= 2x)\n",
              micro_compact_ratio);

  // --- end-to-end: Q1 distributed GL against the single-instance run ------
  const std::string dir = env.json_dir.empty() ? "." : env.json_dir;
  const std::string prov_intra = dir + "/BENCH_wire_prov_intra.bin";
  const std::string prov_dist = dir + "/BENCH_wire_prov_dist.bin";
  std::printf("\nQ1 distributed GL, end to end\n");
  std::printf("---------------------------------------------------------\n");
  const E2eResult intra = RunQ1(env, lr, /*distributed=*/false, prov_intra);
  const E2eResult dist = RunQ1(env, lr, /*distributed=*/true, prov_dist);
  const bool identical =
      !intra.canonical_provenance.empty() &&
      intra.canonical_provenance == dist.canonical_provenance;
  const double u_ratio = dist.u_stream.ratio();
  std::printf("raw      | total wire %12llu B | U stream %12llu B\n",
              static_cast<unsigned long long>(dist.total.raw_bytes),
              static_cast<unsigned long long>(dist.u_stream.raw_bytes));
  std::printf("compact  | total wire %12llu B | U stream %12llu B\n",
              static_cast<unsigned long long>(dist.total.encoded_bytes),
              static_cast<unsigned long long>(dist.u_stream.encoded_bytes));
  std::printf("U-stream bytes-on-wire reduction: %.2fx (target >= 2x)\n",
              u_ratio);
  std::printf(
      "decoded provenance canonical-identical to the single-instance run: "
      "%s\n",
      identical ? "yes" : "NO");
  std::remove(prov_intra.c_str());
  std::remove(prov_dist.c_str());

  // --- BENCH_wire.json ------------------------------------------------------
  if (!env.json_dir.empty()) {
    const std::string path = env.json_dir + "/BENCH_wire.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"wire\",\n  \"reps\": %d,\n"
                 "  \"scale\": %g,\n  \"replays\": %d,\n"
                 "  \"batch_size\": %zu,\n  \"micro\": [\n",
                 env.reps, env.scale, env.replays, batch);
    for (size_t i = 0; i < micro.size(); ++i) {
      const MicroRow& row = micro[i];
      std::fprintf(f,
                   "    {\"codec\": \"%s\", \"encode_ns_per_tuple\": %.2f, "
                   "\"decode_ns_per_tuple\": %.2f, \"raw_bytes\": %llu, "
                   "\"encoded_bytes\": %llu, \"ratio\": %.3f}%s\n",
                   row.name, row.result.encode_ns_per_tuple,
                   row.result.decode_ns_per_tuple,
                   static_cast<unsigned long long>(row.result.raw_bytes),
                   static_cast<unsigned long long>(row.result.encoded_bytes),
                   row.result.ratio(), i + 1 < micro.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n  \"q1_dist_gl\": {\n"
        "    \"wire_frames\": %llu,\n"
        "    \"raw\": {\"total_bytes\": %llu, \"u_stream_bytes\": %llu},\n"
        "    \"compact\": {\"total_bytes\": %llu, "
        "\"u_stream_bytes\": %llu},\n"
        "    \"u_stream_reduction\": %.3f,\n"
        "    \"provenance_identical\": %s\n  },\n"
        "  \"micro_compact_ratio\": %.3f\n}\n",
        static_cast<unsigned long long>(dist.total.frames),
        static_cast<unsigned long long>(dist.total.raw_bytes),
        static_cast<unsigned long long>(dist.u_stream.raw_bytes),
        static_cast<unsigned long long>(dist.total.encoded_bytes),
        static_cast<unsigned long long>(dist.u_stream.encoded_bytes),
        u_ratio, identical ? "true" : "false", micro_compact_ratio);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: the distributed run changed the decoded provenance\n");
    return 1;
  }
  if (u_ratio < 2.0) {
    std::fprintf(stderr,
                 "FAIL: U-stream reduction %.2fx below the 2x target\n",
                 u_ratio);
    return 1;
  }
  if (micro_compact_ratio < 2.0) {
    std::fprintf(stderr,
                 "FAIL: micro U-stream compact reduction %.2fx below the 2x "
                 "target\n",
                 micro_compact_ratio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace genealog::bench

int main() { return genealog::bench::Main(); }
