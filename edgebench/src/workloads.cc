#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "cases.h"
#include "common/memory_accounting.h"
#include "common/tuple_pool.h"
#include "common/wall_clock.h"
#include "genealog/lineage_query.h"
#include "genealog/lineage_service.h"
#include "genealog/lineage_store.h"
#include "genealog/provenance_sink.h"
#include "genealog/su.h"
#include "genealog/traversal.h"
#include "genealog/unfolded.h"
#include "metrics.h"
#include "net/frame.h"
#include "stats.h"

namespace edgebench {

namespace gl = genealog;
using gl::NowNanos;
using gl::ProvenanceMode;
using gl::TuplePtr;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// Hard stop for the repetition loops, well inside the 180 s a run may take.
constexpr double kDeadlineS = 140;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 400;
// Captured for the traced run's replays.
constexpr size_t kKeepSinks = 2000;
constexpr size_t kKeepRecords = 5000;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Aggregate CPU counters of /proc/stat: user nice system idle iowait irq
// softirq steal, in clock ticks (all zero where unreadable).
using CpuTimes = std::array<long long, 8>;

CpuTimes ReadCpuTimes() {
  CpuTimes t{};
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &t[0],
                    &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) != 8) {
      t = {};
    }
    std::fclose(f);
  }
  return t;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  long long total = 0;
  for (size_t i = 0; i < before.size(); ++i) total += after[i] - before[i];
  return total > 0 ? static_cast<double>(after[7] - before[7]) /
                         static_cast<double>(total)
                   : 0.0;
}

// --- workload table ----------------------------------------------------------

struct Spec {
  std::string name;
  bool smart_grid = false;  // Q4 over three instances; Q1 intra otherwise
  int queries = 1;
  double paced_rate_tps = 0;  // per query, constant
  int unthrottled_laps = 1;
  int paced_laps = 1;
  bool console = false;
  bool np_companion = false;
  gl::EngineOptions engine;  // defaults plus the stated overrides
};

Spec SpecFor(const std::string& name) {
  Spec s;
  s.name = name;
  // Paced rates sit at a quarter to a third of the unthrottled throughput
  // measured on a 4-core VM, so that host contention (CPU steal) does not
  // push the open loop into queueing.
  if (name == "lr-intra") {
    s.paced_rate_tps = 500'000;
    s.unthrottled_laps = 3;
    s.np_companion = true;
  } else if (name == "sg-dist") {
    s.smart_grid = true;
    s.paced_rate_tps = 125'000;
    s.unthrottled_laps = 4;
    s.np_companion = true;
    s.engine.use_tcp = true;
    s.engine.lineage_store = true;
  } else if (name == "console") {
    s.paced_rate_tps = 250'000;
    s.unthrottled_laps = 3;
    s.console = true;
    s.engine.lineage_serve_addr = "127.0.0.1:0";
  } else if (name == "fleet") {
    s.queries = 4;
    s.paced_rate_tps = 250'000;
    s.unthrottled_laps = 2;
    s.engine.scheduler = gl::SchedulerMode::kPool;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

std::string EngineJson(const gl::EngineOptions& e) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"batch_size\": %zu, \"spsc_edges\": %s, \"adaptive_batch\": %s, "
      "\"tuple_pool\": %s, \"epoch_traversal\": %s, \"async_prov_sink\": %s, "
      "\"prov_buffer_bytes\": %zu, \"scheduler\": \"%s\", \"workers\": %zu, "
      "\"lineage_store\": %s, \"lineage_retain_records\": %zu, "
      "\"lineage_retain_span\": %lld, \"lineage_serve_addr\": \"%s\", "
      "\"wire_codec\": \"%s\", \"wire_block_compress\": %s, \"use_tcp\": %s, "
      "\"composed_unfolders\": %s}",
      e.batch_size, e.spsc_edges ? "true" : "false",
      e.adaptive_batch ? "true" : "false",
      gl::pool::Enabled() ? "true" : "false",
      gl::EpochTraversalEnabled() ? "true" : "false",
      e.async_prov_sink ? "true" : "false", e.prov_buffer_bytes,
      e.scheduler == gl::SchedulerMode::kPool ? "pool" : "thread-per-node",
      e.workers, e.lineage_store ? "true" : "false", e.lineage_retain_records,
      static_cast<long long>(e.lineage_retain_span),
      e.lineage_serve_addr.c_str(),
      e.wire_codec == gl::WireCodec::kCompact ? "compact" : "raw",
      e.wire_block_compress ? "true" : "false", e.use_tcp ? "true" : "false",
      e.composed_unfolders ? "true" : "false");
  return buf;
}

// --- consumers ---------------------------------------------------------------

// Recently ingested alerts, for the console client to ask about. Fed by the
// provenance consumer, which the sink calls after LineageStore::Ingest.
class RecentIds {
 public:
  void Push(uint64_t id, int64_t ts) {
    std::lock_guard lock(mu_);
    ring_[next_++ % ring_.size()] = {id, ts};
  }
  // A uniformly drawn entry among the newest ring-size alerts.
  std::optional<std::pair<uint64_t, int64_t>> Pick(uint64_t draw) {
    std::lock_guard lock(mu_);
    const uint64_t live = std::min<uint64_t>(next_, ring_.size());
    if (live == 0) return std::nullopt;
    return ring_[(next_ - 1 - draw % live) % ring_.size()];
  }

 private:
  std::mutex mu_;  // guards ring_ and next_
  std::vector<std::pair<uint64_t, int64_t>> ring_ =
      std::vector<std::pair<uint64_t, int64_t>>(1024);
  uint64_t next_ = 0;
};

// Per-query state the sink and provenance consumers fill on the engine
// threads; read after Runner::Join.
struct QueryProbe {
  const QueryCase* qcase = nullptr;
  bool latency = false;  // paced phase: record latency samples
  size_t warmup = 0;     // sink tuples / records skipped before sampling
  Capture capture;
  std::vector<double> sink_ms;
  std::vector<double> prov_ms;
  size_t keep_sinks = 0;
  size_t keep_records = 0;
  std::vector<TuplePtr> kept_sinks;
  std::vector<gl::ProvenanceRecord> kept_records;
};

// --- console client ----------------------------------------------------------

struct ConsoleStats {
  uint64_t requests = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  std::vector<double> latency_ms;  // failed requests read +inf
};

// One closed-loop client: the next request goes out when the previous one
// answered. The mix cycles Lookup, Contributors, Select over the alert's
// window of event time, and Stats, each about a recently ingested alert.
void ConsoleLoop(const std::string& addr, RecentIds& recent,
                 const std::atomic<bool>& stop, ConsoleStats& out,
                 Tracer& tracer, int64_t parent_span, uint64_t seed) {
  const int64_t start = NowNanos();
  std::optional<gl::LineageClient> client;
  try {
    client.emplace(addr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "console: connect to %s failed: %s\n", addr.c_str(),
                 e.what());
    ++out.requests;
    ++out.failed;
    out.latency_ms.push_back(std::numeric_limits<double>::infinity());
    return;
  }
  uint64_t draw = seed * 0x9E3779B97F4A7C15ull + 1;
  for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    draw ^= draw << 13;
    draw ^= draw >> 7;
    draw ^= draw << 17;
    const auto alert = recent.Pick(draw);
    if (!alert) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    const auto [id, ts] = *alert;
    auto span = tracer.Open("console.request", parent_span);
    const int64_t t0 = NowNanos();
    bool ok = false;
    try {
      switch (i % 4) {
        case 0:
          ok = client->Lookup(id).has_value();
          break;
        case 1:
          ok = !client->Contributors(id).empty();
          break;
        case 2: {
          gl::LineagePredicate p;
          p.min_ts = ts - gl::queries::kQ1WindowSize;
          p.max_ts = ts;
          p.records_only = true;
          p.limit = 64;
          ok = !client->Select(p).empty();
          break;
        }
        default:
          ok = client->Stats().records_ingested > 0;
          break;
      }
    } catch (const std::exception&) {
      ok = false;
    }
    const double ms = static_cast<double>(NowNanos() - t0) / 1e6;
    ++out.requests;
    if (ok) {
      out.latency_ms.push_back(ms);
    } else {
      ++out.failed;
      out.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  out.wall_s = Seconds(NowNanos() - start);
}

// --- sampler -----------------------------------------------------------------

// Samples, every `period`, the process RSS and (traced runs) whether each
// watched node's input queue is within one batch of capacity and how far
// paced sources trail their schedule.
class Sampler {
 public:
  struct Watch {
    gl::Node* node = nullptr;
    uint64_t* full = nullptr;     // incremented when the queue is full
    uint64_t* samples = nullptr;  // incremented per sample
  };
  struct PacedSource {
    const gl::Node* node = nullptr;
    uint64_t total = 0;  // tuples the source emits in this repetition
  };

  Sampler(std::chrono::microseconds period, std::vector<Watch> watches,
          std::vector<PacedSource> sources, double rate_tps, int64_t start_ns)
      : period_(period),
        watches_(std::move(watches)),
        sources_(std::move(sources)),
        rate_tps_(rate_tps),
        start_ns_(start_ns),
        thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // Valid after Stop().
  int64_t rss_max() const { return rss_max_; }
  double lag_max_ms() const { return lag_max_ms_; }

 private:
  void Loop() {
    while (!stop_.load()) {
      rss_max_ = std::max(rss_max_, gl::mem::ReadRssBytes());
      for (const Watch& w : watches_) {
        const gl::StreamQueue* q = w.node->input_queue();
        if (q == nullptr) continue;
        ++*w.samples;
        if (q->ApproxWeight() + gl::kDefaultBatchSize > q->capacity()) {
          ++*w.full;
        }
      }
      if (rate_tps_ > 0) {
        const int64_t elapsed = NowNanos() - start_ns_;
        for (const PacedSource& s : sources_) {
          const uint64_t emitted = s.node->tuples_processed();
          if (emitted >= s.total) continue;  // schedule finished
          lag_max_ms_ =
              std::max(lag_max_ms_, SourceLagMs(elapsed, emitted, rate_tps_));
        }
      }
      std::this_thread::sleep_for(period_);
    }
  }

  const std::chrono::microseconds period_;
  std::vector<Watch> watches_;
  std::vector<PacedSource> sources_;
  const double rate_tps_;
  const int64_t start_ns_;
  std::atomic<bool> stop_{false};
  int64_t rss_max_ = 0;
  double lag_max_ms_ = 0;
  std::thread thread_;  // last: starts after every member it reads
};

// --- repetitions -------------------------------------------------------------

enum class Phase { kUnthrottled, kPaced };

struct RepConfig {
  Phase phase = Phase::kUnthrottled;
  ProvenanceMode mode = ProvenanceMode::kGenealog;
  bool traced = false;
  bool keep = false;  // retain sink tuples and records for the replays
};

struct RepResult {
  bool ok = true;
  double setup_s = 0;
  double wall_s = 0;
  uint64_t source_tuples = 0;
  double source_ns_per_tuple = 0;
  double drain_ms = 0;
  uint64_t prov_bytes = 0;
  uint64_t network_bytes = 0;
  std::vector<double> sink_ms;
  std::vector<double> prov_ms;
  double lag_max_ms = 0;
  int64_t rss_peak = 0;  // bytes, sampled over Start() .. Join()
  // Share of CPU time the hypervisor gave to other guests while the run
  // executed (/proc/stat steal); 0 where the kernel does not report it.
  double steal = 0;
  ConsoleStats console;
  double tput() const {
    return wall_s > 0 ? static_cast<double>(source_tuples) / wall_s : 0;
  }
};

struct NodeAgg {
  uint64_t tuples = 0;
  uint64_t full = 0;
  uint64_t samples = 0;
};

// Per-layer probes read from the last traced unthrottled repetition.
struct LayerSnapshot {
  uint64_t su_traversals = 0;
  double su_mean_us = 0;
  double su_p99_us = 0;
  double su_graph_mean = 0;
  uint64_t prov_records = 0;
  double prov_origins_mean = 0;
  uint64_t prov_bytes = 0;
  uint64_t lineage_records = 0;
  uint64_t lineage_bytes = 0;
  gl::WireStats wire;
  gl::pool::Stats pool;
  double mem_peak_mb[4] = {0, 0, 0, 0};
  std::map<std::string, uint64_t> node_tuples;
  gl::ServeStats serve;  // console, from the last traced paced repetition
};

// "i<instance>.<node name>", the per-layer key of a node.
std::string NodeKey(const gl::Node& node) {
  std::string key = "i";
  key += std::to_string(node.instance_id());
  key += '.';
  key += node.name();
  return key;
}

// A per-repetition reading of every repetition that ran to completion;
// repetitions where it is absent (an unsupported percentile) are skipped.
template <typename Fn>
std::vector<double> PerRep(const std::vector<RepResult>& reps, Fn fn) {
  std::vector<double> values;
  for (const RepResult& r : reps) {
    if (!r.ok) continue;
    if (const std::optional<double> v = fn(r)) values.push_back(*v);
  }
  return values;
}

// The samples `member_of` selects, concatenated over every repetition that
// ran to completion.
template <typename Fn>
std::vector<double> Pool(const std::vector<RepResult>& reps, Fn member_of) {
  std::vector<double> pooled;
  for (const RepResult& r : reps) {
    if (!r.ok) continue;
    const std::vector<double>* samples = member_of(r);
    pooled.insert(pooled.end(), samples->begin(), samples->end());
  }
  return pooled;
}

template <typename Fn>
std::optional<double> MedianOver(const std::vector<RepResult>& reps, Fn fn) {
  return Median(PerRep(reps, fn));
}

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

class WorkloadRunner {
 public:
  WorkloadRunner(Spec spec, const RunOptions& options, Tracer& tracer)
      : spec_(std::move(spec)),
        opt_(options),
        tracer_(tracer),
        deadline_ns_(NowNanos() + static_cast<int64_t>(kDeadlineS * 1e9)) {}

  WorkloadResult Run();

 private:
  // Runs one repetition of each config in turn, round after round, until
  // `budget_s` has passed and each has run kMinReps times. Interleaving
  // spreads a transient disturbance of the machine over every config
  // instead of concentrating it in one. Returns each config's repetitions.
  std::vector<std::vector<RepResult>> RunPhases(std::vector<RepConfig> configs,
                                                double budget_s);
  RepResult RunRep(const RepConfig& config);
  gl::queries::QueryBuildOptions MakeOptions(const RepConfig& config,
                                             QueryProbe& probe,
                                             RecentIds* recent, int rep,
                                             int query) const;
  void Snapshot(const RepConfig& config,
                const std::vector<gl::BuiltDataflow>& flows);
  // The provenance file of query `query` in repetition `rep`.
  std::string ProvPath(int rep, int query) const {
    return opt_.scratch_dir + "/prov-" + std::to_string(::getpid()) + "-" +
           std::to_string(rep) + "-" + std::to_string(query) + ".bin";
  }

  void ReportEndToEnd(const std::vector<RepResult>& unthrottled,
                      const std::vector<RepResult>& paced);
  // Sets `name` to the median of `per_rep` and reports it with the
  // repetitions' quartiles.
  void ReportMedian(const std::string& name, const char* unit,
                    const std::vector<double>& per_rep,
                    const std::string& detail);
  // Sets <family>_p50_ms and <family>_p99_ms from `pooled` and reports
  // them, and the highest percentile beyond p99 it supports, with n.
  void ReportPercentiles(const std::string& family,
                         std::vector<double> pooled);
  void ReportPerLayer(const std::vector<RepResult>& baseline,
                      const std::vector<RepResult>& unthrottled,
                      const std::vector<RepResult>& paced,
                      const std::vector<RepResult>& np);
  void ReplayTraversal();
  void ReplayLineage();
  void ReplayCodec();

  void Set(const std::string& name, std::optional<double> value) {
    if (value) result_.metrics[name] = *value;
  }
  void Note(std::string line) { result_.report.push_back(std::move(line)); }

  const Spec spec_;
  const RunOptions opt_;
  Tracer& tracer_;
  const int64_t deadline_ns_;
  std::unique_ptr<QueryCase> case_;
  WorkloadResult result_;
  int64_t rss_base_ = 0;
  int64_t warmup_rss_ = 0;  // peak RSS of the first repetition
  int rep_id_ = 0;
  std::map<std::string, NodeAgg> nodes_;
  LayerSnapshot snap_;
  std::vector<TuplePtr> kept_sinks_;
  std::vector<gl::ProvenanceRecord> kept_records_;
};

gl::queries::QueryBuildOptions WorkloadRunner::MakeOptions(
    const RepConfig& config, QueryProbe& probe, RecentIds* recent, int rep,
    int query) const {
  gl::queries::QueryBuildOptions o;
  o.mode = config.mode;
  o.engine() = spec_.engine;
  o.distributed = spec_.smart_grid;
  const bool paced = config.phase == Phase::kPaced;
  o.source.replays = paced ? spec_.paced_laps : spec_.unthrottled_laps;
  o.source.replay_ts_shift = case_->lap_shift();
  o.source.max_rate_tps = paced ? spec_.paced_rate_tps : 0;
  if (config.mode == ProvenanceMode::kGenealog) {
    // Persist provenance as the paper's deployment does, so the async file
    // writer is on the path.
    o.provenance_file = ProvPath(rep, query);
  } else {
    o.engine().lineage_store = false;
    o.engine().lineage_serve_addr.clear();
  }
  QueryProbe* p = &probe;
  o.sink_consumer = [p](const TuplePtr& t) {
    const int64_t now = NowNanos();
    if (p->latency && p->capture.sinks.size() >= p->warmup &&
        t->stimulus > 0) {
      p->sink_ms.push_back(static_cast<double>(now - t->stimulus) / 1e6);
    }
    p->capture.sinks.push_back(p->qcase->SinkRow(*t));
    if (p->kept_sinks.size() < p->keep_sinks) p->kept_sinks.push_back(t);
  };
  o.provenance_consumer = [p, recent](const gl::ProvenanceRecord& r) {
    const int64_t now = NowNanos();
    if (p->latency && p->capture.records.size() >= p->warmup &&
        r.derived->stimulus > 0) {
      p->prov_ms.push_back(static_cast<double>(now - r.derived->stimulus) /
                           1e6);
    }
    RecordRow row;
    row.derived = p->qcase->SinkRow(*r.derived);
    row.origins_begin = static_cast<uint32_t>(p->capture.origins.size());
    for (const TuplePtr& o : r.origins) {
      p->capture.origins.push_back(p->qcase->OriginRow(*o));
    }
    row.origins_end = static_cast<uint32_t>(p->capture.origins.size());
    p->capture.records.push_back(row);
    if (recent != nullptr) recent->Push(r.derived_id, r.derived_ts);
    if (p->kept_records.size() < p->keep_records) p->kept_records.push_back(r);
  };
  return o;
}

RepResult WorkloadRunner::RunRep(const RepConfig& config) {
  const int rep = ++rep_id_;
  tracer_.set_run_id(rep);
  auto rep_span = tracer_.Open("bench.rep");
  const bool paced = config.phase == Phase::kPaced;
  const bool gl_mode = config.mode == ProvenanceMode::kGenealog;
  const int laps = paced ? spec_.paced_laps : spec_.unthrottled_laps;
  const size_t expected = case_->expected_sinks().size() * laps;
  RepResult out;

  std::vector<std::unique_ptr<QueryProbe>> probes;
  RecentIds recent;
  for (int q = 0; q < spec_.queries; ++q) {
    auto probe = std::make_unique<QueryProbe>();
    probe->qcase = case_.get();
    probe->latency = paced;
    // Warm up by tuple count: the first 5% of the expected alerts (at least
    // 50, at most half) carry the cold start and are not sampled.
    probe->warmup = std::min(std::max<size_t>(50, expected / 20), expected / 2);
    probe->capture.sinks.reserve(expected + 16);
    probe->capture.records.reserve(expected + 16);
    probe->sink_ms.reserve(expected);
    probe->prov_ms.reserve(expected);
    if (config.keep && q == 0) {
      probe->keep_sinks = kKeepSinks;
      probe->keep_records = kKeepRecords;
    }
    probes.push_back(std::move(probe));
  }
  const bool console = spec_.console && gl_mode;

  // Steal is read over Build() and the run, as both are timed.
  const CpuTimes cpu_before = ReadCpuTimes();
  std::vector<gl::BuiltDataflow> flows;
  try {
    auto span = tracer_.Open("queries.build");
    const int64_t t0 = NowNanos();
    for (int q = 0; q < spec_.queries; ++q) {
      flows.push_back(case_->Build(MakeOptions(
          config, *probes[q], console ? &recent : nullptr, rep, q)));
    }
    out.setup_s = Seconds(NowNanos() - t0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: Build failed: %s\n", spec_.name.c_str(),
                 e.what());
    out.ok = false;
    ++result_.attempted;
    ++result_.failed;
    return out;
  }

  std::vector<gl::Topology*> topologies;
  std::vector<Sampler::Watch> watches;
  std::vector<Sampler::PacedSource> sources;
  for (gl::BuiltDataflow& flow : flows) {
    for (auto& channel : flow.channels) {
      flow.topologies.front()->RegisterAbortable(channel.get());
    }
    for (auto& topology : flow.topologies) {
      topologies.push_back(topology.get());
      if (!config.traced || paced) continue;
      for (const auto& node : topology->nodes()) {
        NodeAgg& agg = nodes_[NodeKey(*node)];
        watches.push_back({node.get(), &agg.full, &agg.samples});
      }
    }
    sources.push_back({flow.source(), case_->tuples_per_lap() * laps});
  }

  // The console client; joined by the guard on every path out of here,
  // before the flows it queries are torn down.
  std::atomic<bool> console_stop{false};
  std::thread console_thread;
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~Joiner() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } console_joiner{console_stop, console_thread};
  const int64_t run_span_parent = rep_span.index();
  if (console) {
    console_thread = std::thread(
        [this, &flows, &recent, &console_stop, &out, run_span_parent, rep] {
          ConsoleLoop(flows.front().lineage_service->address(), recent,
                      console_stop, out.console, tracer_, run_span_parent,
                      opt_.seed * 1000 + rep);
        });
  }

  if (config.traced && !paced && gl_mode) {
    gl::mem::ResetAll();
    gl::pool::ResetStats();
  }
  gl::Runner runner(topologies);
  const int64_t start = NowNanos();
  {
    if (!paced) sources.clear();
    Sampler sampler(std::chrono::microseconds(config.traced ? 1000 : 5000),
                    std::move(watches), std::move(sources),
                    paced ? spec_.paced_rate_tps : 0, start);
    auto span = tracer_.Open("spe.run");
    try {
      runner.Start();
      runner.Join();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: run aborted: %s\n", spec_.name.c_str(),
                   e.what());
      out.ok = false;
    }
    const int64_t end = NowNanos();
    sampler.Stop();
    out.wall_s = Seconds(end - start);
    out.lag_max_ms = sampler.lag_max_ms();
    out.rss_peak = sampler.rss_max();
    int64_t active_max = 0;
    int64_t active_sum = 0;
    for (const gl::BuiltDataflow& flow : flows) {
      out.source_tuples += flow.source()->tuples_processed();
      active_max = std::max(active_max, flow.source()->active_ns());
      active_sum += flow.source()->active_ns();
      out.network_bytes += flow.network_bytes();
      if (flow.provenance_sink != nullptr) {
        out.prov_bytes += flow.provenance_sink->bytes_written();
      }
    }
    out.drain_ms = static_cast<double>(end - (start + active_max)) / 1e6;
    if (out.source_tuples > 0) {
      out.source_ns_per_tuple = static_cast<double>(active_sum) /
                                static_cast<double>(out.source_tuples);
    }
  }
  out.steal = StealShare(cpu_before, ReadCpuTimes());
  console_stop.store(true);
  if (console_thread.joinable()) console_thread.join();
  result_.attempted += out.console.requests;
  result_.failed += out.console.failed;

  if (config.traced) Snapshot(config, flows);
  for (const gl::BuiltDataflow& flow : flows) {
    const gl::ProvenanceSinkNode* sink = flow.provenance_sink;
    if (sink != nullptr && sink->write_error()) ++result_.failed;
  }

  {
    auto span = tracer_.Open("bench.check");
    ++result_.attempted;  // the run itself
    if (!out.ok) ++result_.failed;
    for (const auto& probe : probes) {
      // NP records no provenance: only its sink stream is checked.
      case_->Check(probe->capture, laps, gl_mode, result_.attempted,
                   result_.failed);
      probe->capture = Capture{};
      out.sink_ms.insert(out.sink_ms.end(), probe->sink_ms.begin(),
                         probe->sink_ms.end());
      out.prov_ms.insert(out.prov_ms.end(), probe->prov_ms.begin(),
                         probe->prov_ms.end());
      for (TuplePtr& t : probe->kept_sinks) kept_sinks_.push_back(std::move(t));
      for (auto& r : probe->kept_records) kept_records_.push_back(std::move(r));
    }
  }

  flows.clear();  // joins writer threads and stops the lineage service
  std::error_code ec;
  for (int q = 0; q < spec_.queries; ++q) {
    std::filesystem::remove(ProvPath(rep, q), ec);
  }
  return out;
}

void WorkloadRunner::Snapshot(const RepConfig& config,
                              const std::vector<gl::BuiltDataflow>& flows) {
  if (config.phase == Phase::kPaced) {
    for (const gl::BuiltDataflow& flow : flows) {
      if (flow.lineage_service != nullptr) {
        snap_.serve = flow.lineage_service->stats();
      }
    }
    return;
  }
  if (config.mode != ProvenanceMode::kGenealog) return;
  LayerSnapshot s;
  s.serve = snap_.serve;
  double su_ms_sum = 0;
  double graph_sum = 0;
  uint64_t origins = 0;
  for (const gl::BuiltDataflow& flow : flows) {
    for (const gl::SuNode* su : flow.su_nodes) {
      const uint64_t n = su->traversal_count();
      s.su_traversals += n;
      su_ms_sum += su->mean_traversal_ms() * static_cast<double>(n);
      graph_sum += su->mean_graph_size() * static_cast<double>(n);
      if (n > 0) {
        s.su_p99_us =
            std::max(s.su_p99_us, su->traversal_percentile_ms(99) * 1e3);
      }
    }
    if (flow.provenance_sink != nullptr) {
      s.prov_records += flow.provenance_sink->records();
      origins += flow.provenance_sink->origin_tuples();
      s.prov_bytes += flow.provenance_sink->bytes_written();
    }
    if (flow.lineage_store != nullptr) {
      const gl::LineageStore::Stats st = flow.lineage_store->stats();
      s.lineage_records += st.records_retained;
      s.lineage_bytes += st.bytes_retained;
    }
    s.wire += flow.wire_stats();
    for (const auto& topology : flow.topologies) {
      for (const auto& node : topology->nodes()) {
        s.node_tuples[NodeKey(*node)] += node->tuples_processed();
      }
    }
  }
  if (s.su_traversals > 0) {
    s.su_mean_us = su_ms_sum / static_cast<double>(s.su_traversals) * 1e3;
    s.su_graph_mean = graph_sum / static_cast<double>(s.su_traversals);
  }
  if (s.prov_records > 0) {
    s.prov_origins_mean =
        static_cast<double>(origins) / static_cast<double>(s.prov_records);
  }
  s.pool = gl::pool::GetStats();
  for (int i = 1; i <= 3; ++i) {
    s.mem_peak_mb[i] = static_cast<double>(gl::mem::PeakBytes(i)) / kMiB;
  }
  snap_ = std::move(s);
}

std::vector<std::vector<RepResult>> WorkloadRunner::RunPhases(
    std::vector<RepConfig> configs, double budget_s) {
  std::vector<std::vector<RepResult>> reps(configs.size());
  const int64_t end = NowNanos() + static_cast<int64_t>(budget_s * 1e9);
  for (int round = 0; round < kMaxReps; ++round) {
    const int64_t now = NowNanos();
    if (round > 0 && now >= deadline_ns_) break;
    if (round >= kMinReps && now >= end) break;
    for (size_t i = 0; i < configs.size(); ++i) {
      reps[i].push_back(RunRep(configs[i]));
      configs[i].keep = false;  // retain from the first repetition only
    }
  }
  return reps;
}

// --- reporting ---------------------------------------------------------------

std::string Reading(std::optional<double> v, const char* unit) {
  if (!v) return "absent";
  if (std::isinf(*v)) return std::string("inf ") + unit;
  return Fmt("%.6g %s", *v, unit);
}

void WorkloadRunner::ReportMedian(const std::string& name, const char* unit,
                                  const std::vector<double>& per_rep,
                                  const std::string& detail) {
  const std::optional<double> value = Median(per_rep);
  Set(name, value);
  std::string spread;
  if (const auto q = Quartiles(per_rep)) {
    spread = Fmt("; repetitions q1 %.4g q3 %.4g", (*q)[0], (*q)[2]);
  }
  Note(Fmt("%-24s %s  (median of %zu repetitions%s%s)", name.c_str(),
           Reading(value, unit).c_str(), per_rep.size(), spread.c_str(),
           detail.c_str()));
}

void WorkloadRunner::ReportPercentiles(const std::string& family,
                                       std::vector<double> pooled) {
  const size_t n = pooled.size();
  for (double pct : {50.0, 99.0}) {
    const std::string name = Fmt("%s_p%g_ms", family.c_str(), pct);
    const std::optional<double> v = Percentile(pooled, pct);
    Set(name, v);
    Note(Fmt("%-24s %s  (n=%zu samples)", name.c_str(),
             Reading(v, "ms").c_str(), n));
  }
  // The highest percentile the samples support, for the record.
  const std::optional<double> top = HighestSupportedPercentile(n);
  if (top && *top > 99) {
    Note(Fmt("%-24s %s  (n=%zu samples)",
             Fmt("%s_p%g_ms", family.c_str(), *top).c_str(),
             Reading(Percentile(pooled, *top), "ms").c_str(), n));
  }
}

// Repetitions during which the hypervisor ran other guests on this
// machine's CPUs (steal) measure the neighbours as much as the engine: the
// timings use the repetitions at most kCleanSteal stolen, or, when fewer
// than a third of them (and kMinReps) are that clean, the least-stolen
// third. Off a hypervisor steal reads 0 and every repetition counts.
constexpr double kCleanSteal = 0.02;

std::vector<RepResult> LeastStolen(std::vector<RepResult> reps) {
  std::stable_sort(reps.begin(), reps.end(),
                   [](const RepResult& a, const RepResult& b) {
                     return a.steal < b.steal;
                   });
  const auto clean = static_cast<size_t>(
      std::count_if(reps.begin(), reps.end(), [](const RepResult& r) {
        return r.steal <= kCleanSteal;
      }));
  const size_t least = std::max<size_t>(kMinReps, reps.size() / 3);
  reps.resize(std::min(reps.size(), std::max(clean, least)));
  return reps;
}

std::string StealNote(const char* phase, size_t total,
                      const std::vector<RepResult>& used) {
  double worst = 0;
  for (const RepResult& r : used) worst = std::max(worst, r.steal);
  return Fmt("%s: %zu of %zu repetitions used (host CPU steal at most "
             "%.1f%% in those)",
             phase, used.size(), total, 100 * worst);
}

void WorkloadRunner::ReportEndToEnd(
    const std::vector<RepResult>& all_unthrottled,
    const std::vector<RepResult>& all_paced) {
  const std::vector<RepResult> unthrottled = LeastStolen(all_unthrottled);
  const std::vector<RepResult> paced = LeastStolen(all_paced);
  Note(StealNote("unthrottled", all_unthrottled.size(), unthrottled));
  Note(StealNote("paced", all_paced.size(), paced));
  ReportMedian("throughput_tps", "1/s",
               PerRep(unthrottled,
                      [](const RepResult& r) -> std::optional<double> {
                        return r.tput();
                      }),
               Fmt("; unthrottled, %llu tuples each",
                   static_cast<unsigned long long>(
                       case_->tuples_per_lap() * spec_.unthrottled_laps *
                       static_cast<uint64_t>(spec_.queries))));

  // Latency percentiles pool the samples of every paced repetition: a
  // tail percentile then reads the share of the whole paced time spent
  // behind a stall, instead of flipping with whether one short repetition
  // caught a stall or not.
  ReportPercentiles("latency", Pool(paced, [](const RepResult& r) {
                      return &r.sink_ms;
                    }));
  ReportPercentiles("prov_latency", Pool(paced, [](const RepResult& r) {
                      return &r.prov_ms;
                    }));

  const auto prov_bytes = MedianOver(
      unthrottled, [](const RepResult& r) -> std::optional<double> {
        if (r.source_tuples == 0) return std::nullopt;
        return static_cast<double>(r.prov_bytes) * 1e3 /
               static_cast<double>(r.source_tuples);
      });
  Set("prov_bytes_per_ktuple", prov_bytes);
  Note(Fmt("%-24s %s", "prov_bytes_per_ktuple",
           Reading(prov_bytes, "B").c_str()));

  const double rss_mb = static_cast<double>(warmup_rss_ - rss_base_) / kMiB;
  Set("rss_peak_mb", rss_mb);
  Note(Fmt("%-24s %s  (peak RSS of the first Build and paced Run over the "
           "%.1f MB before it)",
           "rss_peak_mb", Reading(rss_mb, "MB").c_str(),
           static_cast<double>(rss_base_) / kMiB));

  // The Build()s of the repetitions the timings use, both phases.
  std::vector<double> builds;
  for (const auto* phase : {&unthrottled, &paced}) {
    for (const RepResult& r : *phase) {
      if (r.ok) builds.push_back(r.setup_s);
    }
  }
  const auto setup = Median(builds);
  Set("setup_s", setup);
  Note(Fmt("%-24s %s  (median of %zu Build()s%s)", "setup_s",
           Reading(setup, "s").c_str(), builds.size(),
           spec_.console ? " incl. lineage service start" : ""));

  if (spec_.console) {
    const auto rps =
        MedianOver(paced, [](const RepResult& r) -> std::optional<double> {
          if (r.console.wall_s <= 0) return std::nullopt;
          return static_cast<double>(r.console.requests) / r.console.wall_s;
        });
    Set("console_rps", rps);
    Note(Fmt("%-24s %s  (one closed-loop client, paced phase)", "console_rps",
             Reading(rps, "1/s").c_str()));
    ReportPercentiles("console", Pool(paced, [](const RepResult& r) {
                        return &r.console.latency_ms;
                      }));
  }
  if (spec_.smart_grid) {
    const auto wire = MedianOver(
        unthrottled, [](const RepResult& r) -> std::optional<double> {
          if (r.source_tuples == 0) return std::nullopt;
          return static_cast<double>(r.network_bytes) /
                 static_cast<double>(r.source_tuples);
        });
    Set("wire_bytes_per_tuple", wire);
    Note(Fmt("%-24s %s  (all channels, per source tuple)",
             "wire_bytes_per_tuple", Reading(wire, "B").c_str()));
  }
  const double error_rate =
      result_.attempted == 0
          ? 1.0
          : static_cast<double>(result_.failed) /
                static_cast<double>(result_.attempted);
  Set("error_rate", error_rate);
  Note(Fmt("%-24s %.6g  (%llu failed of %llu attempted)", "error_rate",
           error_rate, static_cast<unsigned long long>(result_.failed),
           static_cast<unsigned long long>(result_.attempted)));
}

// Contribution-graph size of `root` as Listing 1 walks it (every tuple
// visited, origins included).
size_t GraphNodes(gl::Tuple* root) {
  std::unordered_set<const gl::Tuple*> seen{root};
  std::vector<gl::Tuple*> work{root};
  auto visit = [&](gl::Tuple* t) {
    if (t != nullptr && seen.insert(t).second) work.push_back(t);
  };
  while (!work.empty()) {
    gl::Tuple* t = work.back();
    work.pop_back();
    switch (t->kind) {
      case gl::TupleKind::kSource:
      case gl::TupleKind::kRemote:
        break;
      case gl::TupleKind::kMap:
      case gl::TupleKind::kMultiplex:
        visit(t->u1());
        break;
      case gl::TupleKind::kJoin:
        visit(t->u1());
        visit(t->u2());
        break;
      case gl::TupleKind::kAggregate:
        for (gl::Tuple* w = t->u2(); w != nullptr && w != t->u1();
             w = w->next()) {
          visit(w);
        }
        visit(t->u1());
        break;
    }
  }
  return seen.size();
}

void WorkloadRunner::ReplayTraversal() {
  if (kept_sinks_.empty()) return;
  auto span = tracer_.Open("genealog.traversal.replay");
  uint64_t nodes = 0;
  for (const TuplePtr& t : kept_sinks_) nodes += GraphNodes(t.get());
  gl::TraversalScratch scratch;
  std::vector<gl::Tuple*> result;
  uint64_t rounds = 0;
  const int64_t t0 = NowNanos();
  int64_t elapsed = 0;
  do {
    for (const TuplePtr& t : kept_sinks_) {
      result.clear();
      gl::FindProvenance(t.get(), result, scratch);
    }
    ++rounds;
    elapsed = NowNanos() - t0;
  } while (elapsed < 50'000'000 && rounds < 10'000);
  Set("genealog.traversal.ns_per_node",
      static_cast<double>(elapsed) / static_cast<double>(rounds * nodes));
}

void WorkloadRunner::ReplayLineage() {
  if (kept_records_.empty()) return;
  auto span = tracer_.Open("genealog.lineage.replay");
  std::vector<double> ingest_ns;
  std::shared_ptr<gl::LineageStore> store;
  for (int trial = 0; trial < 3; ++trial) {
    store = std::make_shared<gl::LineageStore>(
        gl::MakeLineageOptions(spec_.engine));
    const int64_t t0 = NowNanos();
    for (const gl::ProvenanceRecord& r : kept_records_) store->Ingest(r);
    ingest_ns.push_back(static_cast<double>(NowNanos() - t0) /
                        static_cast<double>(kept_records_.size()));
  }
  Set("genealog.lineage.ingest_ns", Median(ingest_ns));
  // The same question the console asks, in process, on the same alerts.
  const gl::LineageQuery query(store);
  std::vector<double> contributors_ns;
  uint64_t empty = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const int64_t t0 = NowNanos();
    for (const gl::ProvenanceRecord& r : kept_records_) {
      empty += query.Contributors(r.derived_id).empty() ? 1 : 0;
    }
    contributors_ns.push_back(static_cast<double>(NowNanos() - t0) /
                              static_cast<double>(kept_records_.size()));
  }
  Set("genealog.lineage.contributors_ns", Median(contributors_ns));
  if (empty > 0) {
    Note(Fmt("lineage replay: %llu Contributors answers were empty",
             static_cast<unsigned long long>(empty)));
  }
}

void WorkloadRunner::ReplayCodec() {
  if (kept_records_.empty()) return;
  auto span = tracer_.Open("net.codec.replay");
  // U-shaped tuples as an SU before a Send emits them: one per origin.
  std::vector<TuplePtr> unfolded;
  uint64_t seq = 0;
  for (const gl::ProvenanceRecord& r : kept_records_) {
    for (const TuplePtr& o : r.origins) {
      auto u = gl::MakeTuple<gl::UnfoldedTuple>(r.derived->ts);
      u->id = (uint64_t{0x7ABC} << 40) | seq++;
      u->kind = gl::TupleKind::kMap;
      u->stimulus = r.derived->stimulus;
      u->derived = r.derived;
      u->derived_id = r.derived_id;
      u->derived_ts = r.derived_ts;
      u->origin = o;
      u->origin_id = o->id;
      u->origin_ts = o->ts;
      u->origin_kind = o->kind;
      unfolded.push_back(TuplePtr(u.get()));
    }
  }
  constexpr size_t kBatch = gl::kDefaultBatchSize;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  uint64_t mismatched = 0;
  for (int trial = 0; trial < 3; ++trial) {
    gl::FrameEncoder encoder(gl::WireCodecFrom(spec_.engine));
    gl::FrameDecoder decoder;
    std::vector<std::vector<uint8_t>> frames;
    const int64_t t0 = NowNanos();
    for (size_t i = 0; i < unfolded.size(); i += kBatch) {
      const size_t n = std::min(kBatch, unfolded.size() - i);
      for (auto& f : encoder.EncodeBatch(
               std::span<const TuplePtr>(unfolded.data() + i, n),
               gl::kNoWatermark, /*remotify=*/true)) {
        frames.push_back(std::move(f));
      }
    }
    const int64_t t1 = NowNanos();
    uint64_t decoded = 0;
    for (const auto& f : frames) decoded += decoder.Decode(f).tuples.size();
    const int64_t t2 = NowNanos();
    if (decoded != unfolded.size()) ++mismatched;
    encode_ns.push_back(static_cast<double>(t1 - t0) /
                        static_cast<double>(unfolded.size()));
    decode_ns.push_back(static_cast<double>(t2 - t1) /
                        static_cast<double>(unfolded.size()));
  }
  Set("net.codec.encode_ns_per_tuple", Median(encode_ns));
  Set("net.codec.decode_ns_per_tuple", Median(decode_ns));
  if (mismatched > 0) Note("codec replay: decoded tuple count differs");
}

void WorkloadRunner::ReportPerLayer(const std::vector<RepResult>& baseline,
                                    const std::vector<RepResult>& unthrottled,
                                    const std::vector<RepResult>& paced,
                                    const std::vector<RepResult>& np) {
  const auto tput = [](const RepResult& r) -> std::optional<double> {
    return r.tput();
  };
  std::vector<double> build_ms;
  for (const auto* phase : {&unthrottled, &paced}) {
    for (const RepResult& r : *phase) build_ms.push_back(r.setup_s * 1e3);
  }
  Set("queries.build_ms", Median(build_ms));
  Set("spe.source.ns_per_tuple",
      MedianOver(unthrottled, [](const RepResult& r) -> std::optional<double> {
        return r.source_ns_per_tuple;
      }));
  double lag = 0;
  for (const RepResult& r : paced) lag = std::max(lag, r.lag_max_ms);
  Set("spe.source.lag_max_ms", lag);
  Set("spe.drain_ms",
      MedianOver(unthrottled, [](const RepResult& r) -> std::optional<double> {
        return r.drain_ms;
      }));

  for (const std::string& key : NodeKeys()) {
    const auto tuples = snap_.node_tuples.find(key);
    Set("spe.node." + key + ".tuples",
        tuples == snap_.node_tuples.end()
            ? 0.0
            : static_cast<double>(tuples->second));
    const auto agg = nodes_.find(key);
    Set("spe.node." + key + ".in_full_share",
        agg == nodes_.end() || agg->second.samples == 0
            ? 0.0
            : static_cast<double>(agg->second.full) /
                  static_cast<double>(agg->second.samples));
  }
  for (const auto& [key, tuples] : snap_.node_tuples) {
    if (std::find(NodeKeys().begin(), NodeKeys().end(), key) ==
        NodeKeys().end()) {
      Note("node " + key + " is not in the per-layer catalogue (" +
           std::to_string(tuples) + " tuples)");
    }
  }

  Set("genealog.su.traversals", static_cast<double>(snap_.su_traversals));
  Set("genealog.su.traversal_mean_us", snap_.su_mean_us);
  Set("genealog.su.traversal_p99_us", snap_.su_p99_us);
  Set("genealog.su.graph_mean", snap_.su_graph_mean);
  Set("genealog.traversal.ns_per_node", 0.0);
  ReplayTraversal();
  Set("genealog.prov_sink.records", static_cast<double>(snap_.prov_records));
  Set("genealog.prov_sink.origins_mean", snap_.prov_origins_mean);
  Set("genealog.prov_sink.bytes", static_cast<double>(snap_.prov_bytes));
  for (const char* name :
       {"genealog.lineage.ingest_ns", "genealog.lineage.contributors_ns",
        "net.codec.encode_ns_per_tuple", "net.codec.decode_ns_per_tuple"}) {
    Set(name, 0.0);
  }
  ReplayLineage();
  ReplayCodec();
  Set("genealog.lineage.records_retained",
      static_cast<double>(snap_.lineage_records));
  Set("genealog.lineage.bytes_retained",
      static_cast<double>(snap_.lineage_bytes));
  Set("genealog.service.p50_us", snap_.serve.latency_p50_us);
  Set("genealog.service.p99_us", snap_.serve.latency_p99_us);
  Set("genealog.service.errors", static_cast<double>(snap_.serve.errors));
  Set("net.wire.frames", static_cast<double>(snap_.wire.frames));
  Set("net.wire.raw_bytes", static_cast<double>(snap_.wire.raw_bytes));
  Set("net.wire.encoded_bytes", static_cast<double>(snap_.wire.encoded_bytes));
  Set("common.pool.recycle_hit_rate", snap_.pool.recycle_hit_rate());
  Set("common.pool.slab_bytes", static_cast<double>(snap_.pool.slab_bytes));
  for (int i = 1; i <= 3; ++i) {
    Set("common.mem.i" + std::to_string(i) + ".peak_mb", snap_.mem_peak_mb[i]);
  }

  const auto untraced = MedianOver(baseline, tput);
  const auto traced = MedianOver(unthrottled, tput);
  Set("trace.overhead", untraced && traced && *traced > 0
                            ? std::optional<double>(*untraced / *traced - 1)
                            : std::nullopt);
  const auto np_tput = MedianOver(np, tput);
  Set("provenance.np_throughput_tps", np_tput.value_or(0.0));
  Set("provenance.gl_cost_share",
      np_tput && untraced && *np_tput > 0
          ? 1 - *untraced / *np_tput
          : 0.0);

  const std::map<std::string, double> self = tracer_.SelfMs();
  for (const std::string& span : SpanNames()) {
    const auto it = self.find(span);
    Set("trace.self_ms." + span, it == self.end() ? 0.0 : it->second);
  }
  Note(Fmt("traced run: %zu untraced + %zu traced unthrottled, %zu paced, "
           "%zu NP repetitions; %zu spans",
           baseline.size(), unthrottled.size(), paced.size(), np.size(),
           tracer_.size()));
}

WorkloadResult WorkloadRunner::Run() {
  result_.engine_json = EngineJson(spec_.engine);
  {
    auto span = tracer_.Open("bench.generate");
    if (spec_.smart_grid) {
      case_ = std::make_unique<SmartGridCase>(opt_.seed, opt_.scale);
    } else {
      case_ = std::make_unique<LinearRoadCase>(opt_.seed, opt_.scale);
    }
  }
  Note(Fmt("workload %s: %llu source tuples per lap, %zu alerts per lap; "
           "unthrottled %d laps, paced %d laps at %.0f t/s per query x %d",
           spec_.name.c_str(),
           static_cast<unsigned long long>(case_->tuples_per_lap()),
           case_->expected_sinks().size(), spec_.unthrottled_laps,
           spec_.paced_laps, spec_.paced_rate_tps, spec_.queries));
  rss_base_ = gl::mem::ReadRssBytes();
  const double s = opt_.seconds;
  // Two untimed repetitions first, their output checked like any other.
  // The paced one starts from the footprint before Build(), so its peak RSS
  // is what running the query at its operating rate adds to the process (an
  // unthrottled flood would add whatever backlog the slowest instance lets
  // build up). The unthrottled one carves the tuple-pool slabs a flood needs,
  // which would otherwise slow the first timed repetition.
  warmup_rss_ = RunRep({Phase::kPaced}).rss_peak;
  RunRep({Phase::kUnthrottled});
  if (!opt_.trace) {
    const auto reps =
        RunPhases({{Phase::kUnthrottled}, {Phase::kPaced}}, s);
    ReportEndToEnd(reps[0], reps[1]);
    return std::move(result_);
  }
  // Untraced and traced unthrottled repetitions interleave, so their
  // throughput ratio (the tracing overhead) sees the same machine; so does
  // the NP companion.
  std::vector<RepConfig> unthrottled_configs = {
      {Phase::kUnthrottled},
      {Phase::kUnthrottled, ProvenanceMode::kGenealog, /*traced=*/true,
       /*keep=*/true}};
  if (spec_.np_companion) {
    unthrottled_configs.push_back({Phase::kUnthrottled, ProvenanceMode::kNone});
  }
  auto unthrottled_reps = RunPhases(unthrottled_configs, 0.6 * s);
  const auto paced = RunPhases(
      {{Phase::kPaced, ProvenanceMode::kGenealog, /*traced=*/true}},
      0.4 * s)[0];
  const auto& baseline = unthrottled_reps[0];
  const auto& unthrottled = unthrottled_reps[1];
  const std::vector<RepResult> np =
      spec_.np_companion ? unthrottled_reps[2] : std::vector<RepResult>{};
  ReportPerLayer(baseline, unthrottled, paced, np);
  kept_sinks_.clear();
  kept_records_.clear();
  return std::move(result_);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"lr-intra", "sg-dist",
                                                 "console", "fleet"};
  return names;
}

WorkloadResult RunWorkload(const RunOptions& options, Tracer& tracer) {
  WorkloadRunner runner(SpecFor(options.workload), options, tracer);
  return runner.Run();
}

}  // namespace edgebench
