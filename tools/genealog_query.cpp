// Command-line driver for the four evaluation queries: build any
// (query, provenance mode, deployment) configuration, run it over a
// generated workload, and report alerts, provenance, and run metrics.
// All lineage output is served through the library's LineageQuery API
// (genealog/lineage_query.h) — live runs query the store the topology
// maintains online, and --replay-provenance / --load-snapshot rebuild the
// same store offline, with no query run at all. With --serve the store is
// additionally published over TCP (genealog/lineage_service.h), and
// --connect turns the tool into the matching remote console: every lineage
// flag below works identically against a live handle or a LineageClient.
//
//   genealog_query --query q2 --mode gl --print-provenance
//   genealog_query --query q3 --mode bl --distributed --tcp
//   genealog_query --query q1 --mode gl --provenance-file prov.bin --replays 5
//   genealog_query --replay-provenance prov.bin --lineage-stats \
//       --contributors 0x1000000000a
//   genealog_query --query q1 --mode gl --serve 127.0.0.1:7841 --allow-shutdown
//   genealog_query --connect 127.0.0.1:7841 --lineage-stats --shutdown
//
// Flags:
//   --query q1|q2|q3|q4      (required unless offline/connect mode)
//   --mode np|gl|bl          (default gl)
//   --distributed            3-instance deployment (Figures 7/9C/10C/11C)
//   --tcp                    TCP loopback channels (with --distributed)
//   --composed               Figure-5B/8 standard-operator unfolders
//   --replays N              stream the dataset N times (default 1)
//   --rate TPS               throttle the source (default: unthrottled)
//   --cars N / --meters N    workload size (defaults 80 / 60)
//   --duration S / --days D  workload span (defaults 3600 s / 14 days)
//   --seed S                 workload seed (default 42)
//   --provenance-file PATH   persist provenance records to disk
//   --print-alerts           print every sink tuple
//   --print-provenance       print every retained record's lineage (GL)
//   --replay-provenance PATH offline: load PATH into a LineageStore and serve
//                            the lineage flags below without running a query
//   --load-snapshot PATH     offline: restore a LineageStore snapshot written
//                            by --save-snapshot and serve the lineage flags
//   --save-snapshot PATH     persist the store (live, replayed or restored)
//                            as an atomic, checksummed snapshot
//   --serve ADDR:PORT        publish the store over TCP while the query runs
//                            (live mode) or after the offline rebuild; blocks
//                            until Ctrl-C or a remote shutdown
//   --allow-shutdown         let a remote client stop the service (--serve)
//   --connect ADDR:PORT      remote console: serve the lineage flags through
//                            a LineageClient instead of a local store
//   --shutdown               after serving the flags, ask the remote service
//                            to stop (--connect; server needs --allow-shutdown)
//   --contributors ID        backward closure of tuple ID (repeatable)
//   --derived-from ID        forward closure of tuple ID (repeatable)
//   --expand ID:K            K-hop neighborhood of tuple ID (repeatable)
//   --select MIN:MAX         event-time-range scan (either side may be empty)
//   --node-uid UID           restrict --select to tuples of one node uid
//   --records-only           restrict --select to derived record heads
//   --limit N                cap --select results (0 = unlimited)
//   --lineage-stats          print LineageStore retention/eviction counters
//   --retain-records N       lineage retention bound (0 = unbounded)
//   --retain-span T          lineage event-time horizon (0 = none)
// Numeric flags parse strictly (common/env_knob.h): a malformed value such as
// "--cars abc" prints the reason and the usage and exits 2.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env_knob.h"
#include "genealog/lineage_query.h"
#include "genealog/lineage_service.h"
#include "genealog/lineage_store.h"
#include "metrics/report.h"
#include "queries/queries.h"

namespace {

using namespace genealog;

struct ExpandRequest {
  uint64_t id;
  int hops;
};

struct CliOptions {
  std::string query;
  ProvenanceMode mode = ProvenanceMode::kGenealog;
  bool distributed = false;
  bool tcp = false;
  bool composed = false;
  int replays = 1;
  double rate = 0;
  int cars = 80;
  int meters = 60;
  int64_t duration_s = 3600;
  int days = 14;
  uint64_t seed = 42;
  std::string provenance_file;
  bool print_alerts = false;
  bool print_provenance = false;
  std::string replay_provenance;
  std::string load_snapshot;
  std::string save_snapshot;
  std::string serve;
  bool allow_shutdown = false;
  std::string connect_addr;
  bool shutdown = false;
  std::vector<uint64_t> contributors;
  std::vector<uint64_t> derived_from;
  std::vector<ExpandRequest> expands;
  bool has_select = false;
  LineagePredicate predicate;
  bool lineage_stats = false;
  size_t retain_records = 0;  // 0 = library default
  int64_t retain_span = 0;

  bool WantsLineage() const {
    return print_provenance || lineage_stats || has_select ||
           !contributors.empty() || !derived_from.empty() || !expands.empty();
  }
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --query q1|q2|q3|q4 [--mode np|gl|bl] "
               "[--distributed] [--tcp] [--composed] [--replays N] "
               "[--rate TPS] [--cars N] [--meters N] [--duration S] "
               "[--days D] [--seed S] [--provenance-file PATH] "
               "[--print-alerts] [--print-provenance] "
               "[--serve ADDR:PORT [--allow-shutdown]] [lineage flags]\n"
               "       %s --replay-provenance PATH [--serve ...] "
               "[lineage flags]\n"
               "       %s --load-snapshot PATH [--serve ...] [lineage flags]\n"
               "       %s --connect ADDR:PORT [--shutdown] [lineage flags]\n"
               "lineage flags: [--contributors ID] [--derived-from ID] "
               "[--expand ID:K] [--select MIN:MAX] [--node-uid UID] "
               "[--records-only] [--limit N] [--lineage-stats] "
               "[--save-snapshot PATH] [--retain-records N] [--retain-span T]\n",
               argv0, argv0, argv0, argv0);
  std::exit(2);
}

uint64_t ParseId(const char* s, const char* argv0) {
  char* end = nullptr;
  const uint64_t id = std::strtoull(s, &end, 0);  // base 0: decimal or 0x...
  if (end == s || *end != '\0') Usage(argv0);
  return id;
}

// A non-negative integer flag value no larger than `max`; anything else
// (including an empty value) exits through Usage.
int64_t CountFlag(const char* flag, const char* value, const char* argv0,
                  int64_t max = std::numeric_limits<int64_t>::max()) {
  try {
    const int64_t n = ParseCountKnob(flag, value, -1);
    if (n < 0 || n > max) {
      RejectKnob(flag, value,
                 ("a non-negative integer up to " + std::to_string(max))
                     .c_str());
    }
    return n;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    Usage(argv0);
  }
}

int IntFlag(const char* flag, const char* value, const char* argv0) {
  return static_cast<int>(
      CountFlag(flag, value, argv0, std::numeric_limits<int>::max()));
}

// A finite non-negative real flag value; anything else exits through Usage.
double RealFlag(const char* flag, const char* value, const char* argv0) {
  try {
    if (KnobUnset(value)) RejectKnob(flag, value, "a non-negative number");
    return ParseRealKnob(flag, value, 0.0);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    Usage(argv0);
  }
}

int64_t ParseTsBound(const std::string& s, int64_t open_bound,
                     const char* argv0) {
  if (s.empty()) return open_bound;  // "100:" / ":200" leave one side open
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') Usage(argv0);
  return v;
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) Usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--query") {
      options.query = next_value(i);
    } else if (arg == "--mode") {
      const std::string mode = next_value(i);
      if (mode == "np") {
        options.mode = ProvenanceMode::kNone;
      } else if (mode == "gl") {
        options.mode = ProvenanceMode::kGenealog;
      } else if (mode == "bl") {
        options.mode = ProvenanceMode::kBaseline;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--distributed") {
      options.distributed = true;
    } else if (arg == "--tcp") {
      options.tcp = true;
    } else if (arg == "--composed") {
      options.composed = true;
    } else if (arg == "--replays") {
      options.replays = IntFlag("--replays", next_value(i), argv[0]);
    } else if (arg == "--rate") {
      options.rate = RealFlag("--rate", next_value(i), argv[0]);
    } else if (arg == "--cars") {
      options.cars = IntFlag("--cars", next_value(i), argv[0]);
    } else if (arg == "--meters") {
      options.meters = IntFlag("--meters", next_value(i), argv[0]);
    } else if (arg == "--duration") {
      options.duration_s = CountFlag("--duration", next_value(i), argv[0]);
    } else if (arg == "--days") {
      options.days = IntFlag("--days", next_value(i), argv[0]);
    } else if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(
          CountFlag("--seed", next_value(i), argv[0]));
    } else if (arg == "--provenance-file") {
      options.provenance_file = next_value(i);
    } else if (arg == "--print-alerts") {
      options.print_alerts = true;
    } else if (arg == "--print-provenance") {
      options.print_provenance = true;
    } else if (arg == "--replay-provenance") {
      options.replay_provenance = next_value(i);
    } else if (arg == "--load-snapshot") {
      options.load_snapshot = next_value(i);
    } else if (arg == "--save-snapshot") {
      options.save_snapshot = next_value(i);
    } else if (arg == "--serve") {
      options.serve = next_value(i);
    } else if (arg == "--allow-shutdown") {
      options.allow_shutdown = true;
    } else if (arg == "--connect") {
      options.connect_addr = next_value(i);
    } else if (arg == "--shutdown") {
      options.shutdown = true;
    } else if (arg == "--contributors") {
      options.contributors.push_back(ParseId(next_value(i), argv[0]));
    } else if (arg == "--derived-from") {
      options.derived_from.push_back(ParseId(next_value(i), argv[0]));
    } else if (arg == "--expand") {
      const std::string value = next_value(i);
      const size_t colon = value.find(':');
      if (colon == std::string::npos) Usage(argv[0]);
      options.expands.push_back(
          {ParseId(value.substr(0, colon).c_str(), argv[0]),
           IntFlag("--expand", value.c_str() + colon + 1, argv[0])});
    } else if (arg == "--select") {
      const std::string value = next_value(i);
      const size_t colon = value.find(':');
      if (colon == std::string::npos) Usage(argv[0]);
      options.has_select = true;
      options.predicate.min_ts =
          ParseTsBound(value.substr(0, colon), INT64_MIN, argv[0]);
      options.predicate.max_ts =
          ParseTsBound(value.substr(colon + 1), INT64_MAX, argv[0]);
    } else if (arg == "--node-uid") {
      options.predicate.has_node_uid = true;
      options.predicate.node_uid = ParseId(next_value(i), argv[0]);
    } else if (arg == "--records-only") {
      options.predicate.records_only = true;
    } else if (arg == "--limit") {
      options.predicate.limit = static_cast<uint64_t>(
          CountFlag("--limit", next_value(i), argv[0]));
    } else if (arg == "--lineage-stats") {
      options.lineage_stats = true;
    } else if (arg == "--retain-records") {
      options.retain_records = static_cast<size_t>(
          CountFlag("--retain-records", next_value(i), argv[0]));
    } else if (arg == "--retain-span") {
      options.retain_span = CountFlag("--retain-span", next_value(i), argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
    }
  }
  if (!options.connect_addr.empty()) {
    // Remote console: every local-store mode is mutually exclusive.
    if (!options.query.empty() || !options.replay_provenance.empty() ||
        !options.load_snapshot.empty() || !options.serve.empty() ||
        !options.save_snapshot.empty()) {
      Usage(argv[0]);
    }
    return options;
  }
  if (options.shutdown) Usage(argv[0]);  // --shutdown needs --connect
  if (!options.replay_provenance.empty() || !options.load_snapshot.empty()) {
    if (!options.query.empty() ||
        (!options.replay_provenance.empty() &&
         !options.load_snapshot.empty())) {
      Usage(argv[0]);
    }
    return options;
  }
  if (options.query != "q1" && options.query != "q2" && options.query != "q3" &&
      options.query != "q4") {
    Usage(argv[0]);
  }
  return options;
}

void PrintEntry(const char* prefix, const LineageStore::Entry& entry) {
  std::printf("%sid=0x%llx ts=%lld %s %s\n", prefix,
              static_cast<unsigned long long>(entry.id),
              static_cast<long long>(entry.ts), entry.tuple->type_name(),
              entry.tuple->DebugPayload().c_str());
}

// Serves every requested lineage flag through a LineageQuery handle or a
// LineageClient — the two expose the same method surface, so the console
// behaves identically whether the store is local (live, replayed, restored)
// or behind --connect.
template <typename Lineage>
void ServeLineage(Lineage& lineage, const CliOptions& cli) {
  if (cli.print_provenance) {
    for (const uint64_t id : lineage.RetainedRecordIds()) {
      const auto derived = lineage.Lookup(id);
      if (!derived.has_value()) continue;  // evicted under our feet
      const auto origins = lineage.Contributors(id);
      std::printf("PROVENANCE of ts=%lld %s (%zu sources)\n",
                  static_cast<long long>(derived->ts),
                  derived->tuple->DebugPayload().c_str(), origins.size());
      for (const auto& origin : origins) PrintEntry("  <- ", origin);
    }
  }
  for (const uint64_t id : cli.contributors) {
    const auto entries = lineage.Contributors(id);
    std::printf("CONTRIBUTORS of 0x%llx (%zu)\n",
                static_cast<unsigned long long>(id), entries.size());
    for (const auto& e : entries) PrintEntry("  <- ", e);
  }
  for (const uint64_t id : cli.derived_from) {
    const auto entries = lineage.DerivedFrom(id);
    std::printf("DERIVED FROM 0x%llx (%zu)\n",
                static_cast<unsigned long long>(id), entries.size());
    for (const auto& e : entries) PrintEntry("  -> ", e);
  }
  for (const ExpandRequest& req : cli.expands) {
    const auto entries = lineage.Expand(req.id, req.hops);
    std::printf("EXPAND 0x%llx k=%d (%zu)\n",
                static_cast<unsigned long long>(req.id), req.hops,
                entries.size());
    for (const auto& e : entries) PrintEntry("  <-> ", e);
  }
  if (cli.has_select) {
    const auto entries = lineage.Select(cli.predicate);
    const LineagePredicate& p = cli.predicate;
    std::printf("SELECT ts=[%lld, %lld]%s%s (%zu)\n",
                static_cast<long long>(p.min_ts),
                static_cast<long long>(p.max_ts),
                p.has_node_uid ? " node-filtered" : "",
                p.records_only ? " records-only" : "", entries.size());
    for (const auto& e : entries) PrintEntry("  * ", e);
  }
  if (cli.lineage_stats) {
    std::fputs(metrics::RenderCounterTable("lineage store",
                                           metrics::LineageStatsRows(
                                               lineage.Stats()))
                   .c_str(),
               stdout);
  }
}

LineageOptions RetentionFromCli(const CliOptions& cli) {
  LineageOptions lo;
  if (cli.retain_records > 0) lo.retain_records = cli.retain_records;
  lo.retain_span = cli.retain_span;
  return lo;
}

std::shared_ptr<LineageService> StartService(
    std::shared_ptr<const LineageStore> store, const CliOptions& cli) {
  LineageServiceOptions so = ParseServeAddr(cli.serve);
  so.allow_remote_shutdown = cli.allow_shutdown;
  auto service = std::make_shared<LineageService>(std::move(store), so);
  service->Start();
  std::printf("lineage service listening on %s%s\n",
              service->address().c_str(),
              cli.allow_shutdown ? " (remote shutdown enabled)" : "");
  std::fflush(stdout);
  return service;
}

// Blocks until Ctrl-C or an honored remote shutdown, then prints the serve
// counters.
void WaitAndReport(LineageService& service) {
  service.Wait();
  service.Stop();
  std::fputs(metrics::RenderCounterTable("lineage service",
                                         metrics::ServeStatsRows(
                                             service.stats()))
                 .c_str(),
             stdout);
}

void MaybeSaveSnapshot(const LineageStore& store, const CliOptions& cli) {
  if (cli.save_snapshot.empty()) return;
  store.SaveSnapshot(cli.save_snapshot);
  std::printf("snapshot saved to %s\n", cli.save_snapshot.c_str());
}

// Remote console: serve the lineage flags through a LineageClient.
int ConnectAndServe(const CliOptions& cli) {
  LineageClient client(cli.connect_addr);
  std::printf("connected to %s (server generation %u)\n\n",
              cli.connect_addr.c_str(), client.server_generation());
  ServeLineage(client, cli);
  if (cli.shutdown) {
    client.Shutdown();
    std::printf("remote shutdown requested\n");
  }
  return 0;
}

// Offline modes: no query run — rebuild the store from a provenance file or
// a snapshot and serve the same lineage flags (and optionally the network
// endpoint) against it.
int RebuildAndServe(const CliOptions& cli) {
  auto store = std::make_shared<LineageStore>(RetentionFromCli(cli));
  if (!cli.load_snapshot.empty()) {
    const uint64_t n = store->LoadSnapshot(cli.load_snapshot);
    std::printf("restored %llu records from snapshot %s\n\n",
                static_cast<unsigned long long>(n), cli.load_snapshot.c_str());
  } else {
    const uint64_t n = ReplayProvenanceFile(cli.replay_provenance, *store);
    std::printf("replayed %llu records from %s\n\n",
                static_cast<unsigned long long>(n),
                cli.replay_provenance.c_str());
  }
  MaybeSaveSnapshot(*store, cli);
  LineageQuery lineage(store);
  ServeLineage(lineage, cli);
  if (!cli.serve.empty()) {
    auto service = StartService(store, cli);
    WaitAndReport(*service);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = ParseArgs(argc, argv);
  try {
    if (!cli.connect_addr.empty()) return ConnectAndServe(cli);
    if (!cli.replay_provenance.empty() || !cli.load_snapshot.empty()) {
      return RebuildAndServe(cli);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const bool is_lr = cli.query == "q1" || cli.query == "q2";

  const bool wants_store =
      cli.WantsLineage() || !cli.serve.empty() || !cli.save_snapshot.empty();
  if (wants_store && cli.mode != ProvenanceMode::kGenealog) {
    std::fprintf(stderr, "lineage flags require --mode gl\n");
    return 2;
  }

  // The options are built here, inside the error handler below: their
  // EngineOptions defaults parse the GENEALOG_* variables and throw on a
  // malformed one.
  auto build = [&] {
    queries::QueryBuildOptions options;
    options.mode = cli.mode;
    options.distributed = cli.distributed;
    options.use_tcp = cli.tcp;
    options.composed_unfolders = cli.composed;
    options.provenance_file = cli.provenance_file;
    options.source.replays = cli.replays;
    options.source.max_rate_tps = cli.rate;
    if (wants_store) {
      options.lineage_store = true;
      const LineageOptions lo = RetentionFromCli(cli);
      options.lineage_retain_records = lo.retain_records;
      options.lineage_retain_span = lo.retain_span;
    }
    if (cli.print_alerts) {
      options.sink_consumer = [](const TuplePtr& t) {
        std::printf("ALERT ts=%lld %s\n", static_cast<long long>(t->ts),
                    t->DebugPayload().c_str());
      };
    }
    if (is_lr) {
      lr::LinearRoadConfig config;
      config.n_cars = cli.cars;
      config.duration_s = cli.duration_s;
      config.stop_probability = 0.01;
      config.accident_probability = 0.03;
      config.forced_accident_ticks = {10};
      config.seed = cli.seed;
      options.source.replay_ts_shift = config.duration_s;
      auto data = lr::GenerateLinearRoad(config);
      std::printf("workload: %zu position reports x%d replays\n",
                  data.reports.size(), cli.replays);
      return cli.query == "q1"
                 ? queries::BuildQ1Fluent(data, std::move(options))
                 : queries::BuildQ2Fluent(data, std::move(options));
    }
    sg::SmartGridConfig config;
    config.n_meters = cli.meters;
    config.n_days = cli.days;
    config.blackout_probability = 0.1;
    config.forced_blackout_days = {cli.days / 2};
    config.blackout_meters = 8;
    config.anomaly_probability = 0.01;
    config.seed = cli.seed;
    options.source.replay_ts_shift = static_cast<int64_t>(config.n_days) * 24;
    auto data = sg::GenerateSmartGrid(config);
    std::printf("workload: %zu meter readings x%d replays\n",
                data.readings.size(), cli.replays);
    return cli.query == "q3"
               ? queries::BuildQ3Fluent(data, std::move(options))
               : queries::BuildQ4Fluent(data, std::move(options));
  };

  // A malformed GENEALOG_* variable or a configuration Dataflow::Build
  // rejects exits 1 with its error. Serving starts before Run(): a remote
  // console can attach and query while the topology executes (the normal
  // GeneaLog live-query story).
  BuiltDataflow query;
  std::shared_ptr<LineageService> service;
  try {
    query = build();
    if (!cli.serve.empty()) service = StartService(query.lineage_store, cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("running %s mode=%s deployment=%s...\n\n", cli.query.c_str(),
              ToString(cli.mode),
              cli.distributed ? (cli.tcp ? "distributed/tcp" : "distributed")
                              : "intra-process");
  query.Run();

  if (cli.WantsLineage()) {
    LineageQuery lineage = query.lineage();
    ServeLineage(lineage, cli);
  }
  if (query.lineage_store != nullptr) {
    try {
      MaybeSaveSnapshot(*query.lineage_store, cli);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  const SourceNodeBase* source = query.source();
  const double seconds = static_cast<double>(source->active_ns()) / 1e9;
  std::printf("\n--- run summary -------------------------------------------\n");
  std::printf("source tuples     %llu (%.2f s, %.0f t/s)\n",
              static_cast<unsigned long long>(source->tuples_processed()),
              seconds,
              seconds > 0
                  ? static_cast<double>(source->tuples_processed()) / seconds
                  : 0.0);
  std::printf("sink tuples       %llu (mean latency %.2f ms)\n",
              static_cast<unsigned long long>(query.sink()->count()),
              query.sink()->mean_latency_ms());
  if (cli.mode != ProvenanceMode::kNone) {
    std::printf("provenance        %llu records, %.1f sources each, %llu bytes\n",
                static_cast<unsigned long long>(query.provenance_records()),
                query.mean_origins_per_record(),
                static_cast<unsigned long long>(query.provenance_bytes()));
  }
  if (query.baseline_resolver != nullptr) {
    std::printf("BL source store   peak %zu tuples\n",
                query.baseline_resolver->store_peak_size());
  }
  if (!query.channels.empty()) {
    std::printf("network           %llu bytes across %d instances\n",
                static_cast<unsigned long long>(query.network_bytes()),
                query.n_instances);
  }
  for (SuNode* su : query.su_nodes) {
    std::printf("traversal (%s, instance %d): %.4f ms avg over %llu graphs\n",
                su->name().c_str(), su->instance_id(), su->mean_traversal_ms(),
                static_cast<unsigned long long>(su->traversal_count()));
  }

  // Keep serving after the run drains: the store outlives the topology, so a
  // console can still walk the retained lineage.
  if (service != nullptr) {
    std::printf("\nquery drained; still serving lineage on %s\n",
                service->address().c_str());
    std::fflush(stdout);
    WaitAndReport(*service);
  }
  return 0;
}
