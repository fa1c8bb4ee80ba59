// Micro-benchmarks (google-benchmark) for GeneaLog's primitive costs:
// meta-attribute instrumentation, contribution-graph traversal by size and
// shape, GL pointer-setting vs BL annotation-union, cascade reclamation,
// tuple cloning and serialization, the provenance file's per-record encoding
// — plus the data-plane batch-size sweep
// (end-to-end stateless chain throughput by stream batch size).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/instrumentation.h"
#include "core/type_registry.h"
#include "genealog/lineage_store.h"
#include "genealog/provenance_record.h"
#include "genealog/su.h"
#include "genealog/traversal.h"
#include "lr/linear_road.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"

namespace genealog {
namespace {

using lr::PositionReport;

IntrusivePtr<PositionReport> Report(int64_t ts) {
  return MakeTuple<PositionReport>(ts, /*car_id=*/7, /*speed=*/0.0,
                                   /*pos=*/1234);
}

// Builds an AGGREGATE contribution graph with `n` source tuples.
TuplePtr AggregateGraph(int n) {
  std::vector<IntrusivePtr<PositionReport>> window;
  window.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) window.push_back(Report(i));
  auto out = Report(0);
  InstrumentAggregate(ProvenanceMode::kGenealog, *out,
                      std::span<const IntrusivePtr<PositionReport>>(window));
  return out;
}

// Builds a binary JOIN tree of depth d over 2^d source tuples.
TuplePtr JoinTree(int depth) {
  std::vector<TuplePtr> layer;
  for (int i = 0; i < (1 << depth); ++i) layer.push_back(Report(i));
  while (layer.size() > 1) {
    std::vector<TuplePtr> next;
    for (size_t i = 0; i + 1 < layer.size(); i += 2) {
      auto join = Report(layer[i + 1]->ts);
      InstrumentJoin(ProvenanceMode::kGenealog, *join, *layer[i + 1],
                     *layer[i]);
      next.push_back(join);
    }
    layer = std::move(next);
  }
  return layer.front();
}

void BM_InstrumentSource(benchmark::State& state) {
  auto t = Report(1);
  for (auto _ : state) {
    InstrumentSource(ProvenanceMode::kGenealog, *t);
    benchmark::DoNotOptimize(t.get());
  }
}
BENCHMARK(BM_InstrumentSource);

void BM_InstrumentUnary_GL(benchmark::State& state) {
  auto in = Report(1);
  for (auto _ : state) {
    auto out = Report(1);
    InstrumentUnary(ProvenanceMode::kGenealog, *out, TupleKind::kMap, *in);
    benchmark::DoNotOptimize(out.get());
  }
}
BENCHMARK(BM_InstrumentUnary_GL);

void BM_InstrumentAggregate_GL(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<IntrusivePtr<PositionReport>> window;
  for (int i = 0; i < n; ++i) window.push_back(Report(i));
  for (auto _ : state) {
    auto out = Report(0);
    InstrumentAggregate(ProvenanceMode::kGenealog, *out,
                        std::span<const IntrusivePtr<PositionReport>>(window));
    benchmark::DoNotOptimize(out.get());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InstrumentAggregate_GL)->Arg(4)->Arg(24)->Arg(192)->Arg(1024);

// The BL contrast: annotation union over the same window sizes.
void BM_InstrumentAggregate_BL(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<IntrusivePtr<PositionReport>> window;
  for (int i = 0; i < n; ++i) {
    window.push_back(Report(i));
    window.back()->id = static_cast<uint64_t>(i);
    InstrumentSource(ProvenanceMode::kBaseline, *window.back());
  }
  for (auto _ : state) {
    auto out = Report(0);
    InstrumentAggregate(ProvenanceMode::kBaseline, *out,
                        std::span<const IntrusivePtr<PositionReport>>(window));
    benchmark::DoNotOptimize(out.get());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InstrumentAggregate_BL)->Arg(4)->Arg(24)->Arg(192)->Arg(1024);

// Traversal micros: the Figure 14 / SU hot-path cost of one FindProvenance
// call with a warmed scratch, over an aggregate window of n tuples and over
// a join tree. n=192 is Q3-sized; the benchmark workloads walk graphs of
// 4-12 nodes, inside the pointer set's inline slots.
void BM_TraversalAggregate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TuplePtr root = AggregateGraph(n);
  TraversalScratch scratch;
  std::vector<Tuple*> result;
  for (auto _ : state) {
    result.clear();
    FindProvenance(root.get(), result, scratch);
    benchmark::DoNotOptimize(result.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TraversalAggregate)
    ->ArgNames({"n"})
    ->Arg(4)
    ->Arg(8)
    ->Arg(24)
    ->Arg(192)
    ->Arg(2048);

void BM_TraversalJoinTree(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  TuplePtr root = JoinTree(depth);
  TraversalScratch scratch;
  std::vector<Tuple*> result;
  for (auto _ : state) {
    result.clear();
    FindProvenance(root.get(), result, scratch);
    benchmark::DoNotOptimize(result.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << depth));
}
BENCHMARK(BM_TraversalJoinTree)->ArgNames({"depth"})->Arg(3)->Arg(6)->Arg(10);

// The whole SU unfold step for one sink tuple (Unfolder::Unfold): the timed
// traversal plus building the unfolded tuples (pool-allocated, straight into
// a chunk-like buffer). This is the per-sink-tuple provenance cost an SU pays
// end to end.
void BM_SuUnfold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TuplePtr root = AggregateGraph(n);
  Unfolder unfolder;
  std::vector<IntrusivePtr<UnfoldedTuple>> out;
  for (auto _ : state) {
    out.clear();
    unfolder.Unfold(root, [&](IntrusivePtr<UnfoldedTuple> u) {
      out.push_back(std::move(u));
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SuUnfold)->Arg(4)->Arg(24)->Arg(192);

void BM_CascadeReclamation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    TuplePtr root = AggregateGraph(n);
    state.ResumeTiming();
    root.reset();  // reclaims the n-tuple graph iteratively
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CascadeReclamation)->Arg(24)->Arg(192)->Arg(2048);

// The allocation path in isolation: one MakeTuple plus last-reference release
// per iteration. In steady state the tuple pool serves it as a thread-local
// pop/push pair.
void BM_MakeTupleChurn(benchmark::State& state) {
  for (auto _ : state) {
    auto t = Report(1);
    benchmark::DoNotOptimize(t.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MakeTupleChurn);

// Contribution-graph churn: allocate a small JOIN graph and release it whole,
// the shape the recycling cascade sees in real queries.
void BM_MakeTupleGraphChurn(benchmark::State& state) {
  for (auto _ : state) {
    auto join = Report(2);
    InstrumentJoin(ProvenanceMode::kGenealog, *join, *Report(1), *Report(0));
    benchmark::DoNotOptimize(join.get());
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_MakeTupleGraphChurn);

// Cloning through the base pointer, the shape Multiplex/Router see. The
// pointer is laundered so the compiler cannot statically devirtualize —
// this is the pre-fast-path per-copy cost (vtable dispatch + clone).
void BM_CloneTuple(benchmark::State& state) {
  TuplePtr t = Report(1);
  benchmark::DoNotOptimize(t);
  for (auto _ : state) {
    TuplePtr copy = t->CloneTuple();
    benchmark::DoNotOptimize(copy.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CloneTuple);

// The same-class fast path Multiplex/Router now run: the cached direct-call
// cloner keyed on the tag MakeTuple stamped into the header, skipping
// virtual dispatch for runs of same-typed tuples.
void BM_CloneTupleSameClass(benchmark::State& state) {
  TuplePtr t = Report(1);
  benchmark::DoNotOptimize(t);
  CloneCache cache;
  for (auto _ : state) {
    TuplePtr copy = cache.Clone(*t);
    benchmark::DoNotOptimize(copy.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CloneTupleSameClass);

void BM_SerializeTuple(benchmark::State& state) {
  auto t = Report(1);
  ByteWriter w;
  for (auto _ : state) {
    w.Clear();
    SerializeTuple(*t, w);
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() * 45);
}
BENCHMARK(BM_SerializeTuple);

void BM_DeserializeTuple(benchmark::State& state) {
  auto t = Report(1);
  ByteWriter w;
  SerializeTuple(*t, w);
  for (auto _ : state) {
    ByteReader r(w.bytes());
    TuplePtr back = DeserializeTuple(r);
    benchmark::DoNotOptimize(back.get());
  }
}
BENCHMARK(BM_DeserializeTuple);

void BM_AnnotationMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  for (int i = 0; i < n; ++i) {
    a.push_back(static_cast<uint64_t>(2 * i));
    b.push_back(static_cast<uint64_t>(2 * i + 1));
  }
  for (auto _ : state) {
    auto merged = MergeAnnotations(&a, &b);
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_AnnotationMerge)->Arg(4)->Arg(96)->Arg(1024);

// --- provenance file ---------------------------------------------------------
// Per-record cost and size of the provenance file's block encoding (the
// sink's and resolver's ProvenanceFileWriter without a path: encode, seal,
// checksum and count, no I/O). Arg = origins per record: 4 is Q1's shape,
// 25 Q4's. One record per iteration, so the time column is ns per record.
// Ids, timestamps and stimuli advance as a live stream's do, so the deltas
// and dictionary hits are the ones a real file sees.
void BM_ProvenanceRecordWrite(benchmark::State& state) {
  const int n_origins = static_cast<int>(state.range(0));
  ProvenanceFileWriter writer("bench", /*path=*/"", /*buffer_bytes=*/0);
  auto derived = MakeTuple<lr::StoppedCarStats>(0, 7, n_origins, 0, 1234);
  derived->kind = TupleKind::kAggregate;
  std::vector<IntrusivePtr<PositionReport>> origins;
  ProvenanceRecord rec;
  rec.derived = TuplePtr(derived.get());
  for (int i = 0; i < n_origins; ++i) {
    origins.push_back(Report(i));
    rec.origins.push_back(TuplePtr(origins.back().get()));
  }
  uint64_t seq = 1;
  for (auto _ : state) {
    const int64_t ts = static_cast<int64_t>(seq) * 30;
    derived->ts = ts;
    derived->id = (uint64_t{9} << 40) | seq;
    derived->stimulus = 1'700'000'000'000 + ts;
    rec.derived_id = derived->id;
    rec.derived_ts = ts;
    for (size_t i = 0; i < origins.size(); ++i) {
      origins[i]->ts = ts - static_cast<int64_t>(30 * i);
      origins[i]->id = (uint64_t{1} << 40) | (seq * origins.size() + i);
      origins[i]->stimulus = derived->stimulus - static_cast<int64_t>(i);
    }
    ++seq;
    writer.Write(rec);
    benchmark::ClobberMemory();
  }
  writer.Flush();
  state.counters["bytes_per_record"] =
      static_cast<double>(writer.bytes_written()) /
      std::max(static_cast<double>(writer.records()), 1.0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProvenanceRecordWrite)->ArgName("origins")->Arg(4)->Arg(25);

// --- lineage store -----------------------------------------------------------
// Per-record ingest cost of the live lineage index (serialize + intern +
// adjacency + amortized whole-epoch eviction at a steady retained size). The
// disabled-store cost is pinned elsewhere: BM_StatelessChain_GL runs with the
// store off, and the sink pays one null check per record.
void BM_LineageIngest(benchmark::State& state) {
  LineageOptions lo;
  lo.retain_records = 1 << 16;
  LineageStore store(lo);
  // Q1-shaped record: 4 source origins per derived sink tuple. The same
  // tuple objects are re-stamped with fresh ids each iteration, so every
  // Ingest takes the fresh-record path (no merge) at flat memory.
  auto derived = Report(0);
  std::vector<IntrusivePtr<PositionReport>> origins;
  ProvenanceRecord rec;
  rec.derived = TuplePtr(derived.get());
  for (int i = 0; i < 4; ++i) {
    origins.push_back(Report(i));
    rec.origins.push_back(TuplePtr(origins.back().get()));
  }
  uint64_t seq = 1;
  for (auto _ : state) {
    derived->ts = static_cast<int64_t>(seq);
    derived->id = (uint64_t{9} << 40) | seq;
    rec.derived_id = derived->id;
    rec.derived_ts = derived->ts;
    for (size_t i = 0; i < origins.size(); ++i) {
      origins[i]->id = (uint64_t{1} << 40) | (seq * 4 + i);
    }
    ++seq;
    store.Ingest(rec);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineageIngest);

// Backward-closure lookup latency against retained index size. Records are
// Q1-shaped with a sliding 4-origin window over one source stream, so
// consecutive records share 3 of their 4 origins — the adjacency shape a
// live Q1 store actually holds.
void BM_LineageLookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  LineageStore store(LineageOptions{/*retain_records=*/0, 0, 1024});
  auto derived = Report(0);
  std::vector<IntrusivePtr<PositionReport>> origins;
  ProvenanceRecord rec;
  rec.derived = TuplePtr(derived.get());
  for (int i = 0; i < 4; ++i) {
    origins.push_back(Report(i));
    rec.origins.push_back(TuplePtr(origins.back().get()));
  }
  for (size_t r = 0; r < n; ++r) {
    derived->ts = static_cast<int64_t>(r);
    derived->id = (uint64_t{9} << 40) | (r + 1);
    rec.derived_id = derived->id;
    rec.derived_ts = derived->ts;
    // Serialized bytes only matter on first sight of an id, so re-stamping
    // the same 4 objects walks the whole sliding source stream.
    for (size_t i = 0; i < 4; ++i) {
      origins[i]->id = (uint64_t{1} << 40) | (r + i + 1);
    }
    store.Ingest(rec);
  }
  const std::vector<uint64_t> ids = store.RetainedRecordIds();
  size_t j = 0;
  for (auto _ : state) {
    const auto result = store.Contributors(ids[j]);
    benchmark::DoNotOptimize(result.data());
    if (++j == ids.size()) j = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineageLookup)->Arg(1024)->Arg(32768)->Arg(262144);

// --- data-plane sweep --------------------------------------------------------
// End-to-end stateless chain, GL mode: Source -> Map (creates, instrumented
// U1) -> Filter -> Multiplex -> Sink, every operator on its own thread. The
// one argument is the stream batch size: endpoints steer their flush
// threshold within [1, batch] from consumer queue depth. Batch 1 hands every
// tuple over on its own, so items_per_second across the sweep is the
// data-plane speedup of batching.
// The dataset has realistic timestamp plateaus (many reports per LR second),
// so watermarks — which always flush pending batches — advance once per
// plateau, not once per tuple.
const std::vector<IntrusivePtr<PositionReport>>& ChainDataset() {
  static const auto* data = [] {
    auto* d = new std::vector<IntrusivePtr<PositionReport>>();
    constexpr int kTuples = 200'000;
    constexpr int kPerTick = 64;
    d->reserve(kTuples);
    for (int i = 0; i < kTuples; ++i) {
      d->push_back(MakeTuple<PositionReport>(
          /*ts=*/i / kPerTick, /*car_id=*/i % 97,
          /*speed=*/static_cast<double>(i % 31), /*pos=*/i));
    }
    return d;
  }();
  return *data;
}

// chained:0 wires every edge through a queue (Connect), chained:1 runs the
// Map, Filters and Sink inside the source's task (Chain), so the pair of
// arms prices the per-tuple handoff between tasks.
void BM_StatelessChain_GL(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  const bool chained = state.range(1) != 0;
  const auto& data = ChainDataset();
  for (auto _ : state) {
    Topology topo(/*instance_id=*/0, ProvenanceMode::kGenealog,
                  EngineOptions{.batch_size = batch_size});
    auto* source = topo.Add<VectorSourceNode<PositionReport>>("src", data);
    auto* map = topo.Add<MapNode<PositionReport, PositionReport>>(
        "map", [](const PositionReport& r, MapCollector<PositionReport>& out) {
          out.Emit(MakeTuple<PositionReport>(r.ts, r.car_id, r.speed * 0.5,
                                             r.pos + 1));
        });
    auto* f1 = topo.Add<FilterNode<PositionReport>>(
        "f1", [](const PositionReport& r) { return r.pos % 128 != 0; });
    auto* f2 = topo.Add<FilterNode<PositionReport>>(
        "f2", [](const PositionReport& r) { return r.speed < 30.0; });
    auto* f3 = topo.Add<FilterNode<PositionReport>>(
        "f3", [](const PositionReport& r) { return r.car_id != 96; });
    auto* sink = topo.Add<SinkNode>("sink");
    // Throughput micro: skip the sink's latency sampling (RunCell-style
    // benches measure that; here it would just add a clock+mutex per tuple).
    sink->set_record_after_ns(std::numeric_limits<int64_t>::max());
    const std::pair<Node*, SingleInputNode*> edges[] = {
        {source, map}, {map, f1}, {f1, f2}, {f2, f3}, {f3, sink}};
    for (const auto& [from, to] : edges) {
      if (chained) {
        topo.Chain(from, to);
      } else {
        topo.Connect(from, to);
      }
    }
    RunToCompletion(topo);
    benchmark::DoNotOptimize(sink->count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_StatelessChain_GL)
    ->ArgNames({"batch", "chained"})
    ->ArgsProduct({{1, 4, 16, 64, 256, 1024}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Captures each benchmark's headline numbers while still printing the
// normal console table, so the BENCH_*.json written afterwards records the
// run's results next to the pool stats.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    int64_t iterations = 0;
    double real_time = 0;  // in `time_unit` (micros report ns, sweeps ms)
    const char* time_unit = "ns";
    double items_per_second = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      row.real_time = run.GetAdjustedRealTime();
      row.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        row.items_per_second = static_cast<double>(it->second);
      }
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

// Machine-readable results for the CI bench-smoke job: the benchmarks that
// ran (BM_StatelessChain_GL cells, allocation-path micros) plus whether the
// pool was on and its slab/recycle stats, so BENCH_*.json artifacts carry
// the allocation-path trajectory per commit.
void WritePoolStatsJson(const CapturingReporter& reporter) {
  const char* dir = std::getenv("GENEALOG_BENCH_JSON_DIR");
  const std::string json_dir = dir != nullptr ? dir : ".";
  if (json_dir.empty()) return;
  const std::string path = json_dir + "/BENCH_micro_pool.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WritePoolStatsJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_pool\",\n  ");
  bench::WritePoolStatsFields(f);
  std::fprintf(f, ",\n  \"rows\": [\n");
  const auto& rows = reporter.rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iterations\": %lld, "
                 "\"real_time\": %.4f, \"time_unit\": \"%s\", "
                 "\"items_per_second\": %.1f}%s\n",
                 rows[i].name.c_str(),
                 static_cast<long long>(rows[i].iterations), rows[i].real_time,
                 rows[i].time_unit, rows[i].items_per_second,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// Machine-readable lineage-store numbers for bench-smoke: the BM_Lineage*
// rows (ingest cost, lookup latency vs retained size) land in their own
// BENCH_lineage.json so the serving-path trajectory is tracked per commit
// separately from the pool stats. No-op when no lineage micro ran.
void WriteLineageJson(const CapturingReporter& reporter) {
  std::vector<const CapturingReporter::Row*> rows;
  for (const auto& row : reporter.rows()) {
    if (row.name.find("Lineage") != std::string::npos) rows.push_back(&row);
  }
  if (rows.empty()) return;
  const char* dir = std::getenv("GENEALOG_BENCH_JSON_DIR");
  const std::string json_dir = dir != nullptr ? dir : ".";
  if (json_dir.empty()) return;
  const std::string path = json_dir + "/BENCH_lineage.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WriteLineageJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"lineage\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iterations\": %lld, "
                 "\"real_time\": %.4f, \"time_unit\": \"%s\", "
                 "\"items_per_second\": %.1f}%s\n",
                 rows[i]->name.c_str(),
                 static_cast<long long>(rows[i]->iterations),
                 rows[i]->real_time, rows[i]->time_unit,
                 rows[i]->items_per_second, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace genealog

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  genealog::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  genealog::WritePoolStatsJson(reporter);
  genealog::WriteLineageJson(reporter);
  return 0;
}
