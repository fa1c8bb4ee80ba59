// The four evaluation queries, pinned to golden digests. Every cell of
// tests/queries/golden/queries.golden — Q1–Q4 x {NP, GL, BL} x {intra,
// dist} — records the sink stream (count and digest in emission order), the
// provenance (record count and digest of the canonical file bytes, see
// CanonicalProvenanceBytes in query_helpers.h) and the lowered structure
// (instances, SU nodes, channels). The goldens were frozen from the
// hand-wired deployments the fluent builders replaced, so BuildQ{1..4}Fluent
// must reproduce the paper's wiring exactly.
//
// Each cell is checked at batch {1, 64}: batching must be invisible, and
// the distributed cells, whose channels carry compact frames, must match
// the digests the seed wire format produced. The key-partitioned
// `.Parallel(n)` lowering is pinned to the same sink and provenance digests.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "lr/linear_road.h"
#include "queries/query_helpers.h"
#include "smartgrid/smartgrid.h"

namespace genealog::queries {
namespace {

lr::LinearRoadData SmallLr() {
  lr::LinearRoadConfig config;
  config.n_cars = 30;
  config.duration_s = 1800;
  config.stop_probability = 0.03;
  config.seed = 17;
  return lr::GenerateLinearRoad(config);
}

lr::LinearRoadData AccidentLr() {
  lr::LinearRoadConfig config;
  config.n_cars = 50;
  config.duration_s = 2400;
  config.stop_probability = 0.02;
  config.accident_probability = 0.08;
  config.seed = 11;
  return lr::GenerateLinearRoad(config);
}

sg::SmartGridData SmallSg() {
  sg::SmartGridConfig config;
  config.n_meters = 25;
  config.n_days = 8;
  config.blackout_probability = 0.4;
  config.forced_blackout_days = {1, 4};
  config.blackout_meters = 9;
  config.anomaly_probability = 0.03;
  config.seed = 23;
  return sg::GenerateSmartGrid(config);
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// One golden line, split into the columns the checks compare separately.
struct CellDigest {
  std::string key;        // "Q1 GL intra"
  std::string outputs;    // sink_count sink_fnv prov_records prov_fnv
  std::string structure;  // n_instances su_nodes channels
};

// Golden lines keyed by "query mode deployment".
const std::map<std::string, CellDigest>& Goldens() {
  static const std::map<std::string, CellDigest> goldens = [] {
    const std::filesystem::path path =
        std::filesystem::path(__FILE__).parent_path() / "golden" /
        "queries.golden";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::map<std::string, CellDigest> out;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::vector<std::string> f;
      for (std::string token; fields >> token;) f.push_back(token);
      EXPECT_EQ(f.size(), 10u) << "malformed golden line: " << line;
      if (f.size() != 10) continue;
      CellDigest cell{f[0] + " " + f[1] + " " + f[2],
                      f[3] + " " + f[4] + " " + f[5] + " " + f[6],
                      f[7] + " " + f[8] + " " + f[9]};
      out.emplace(cell.key, cell);
    }
    return out;
  }();
  return goldens;
}

const CellDigest& Golden(const std::string& key) {
  static const CellDigest missing{};
  const auto& goldens = Goldens();
  const auto it = goldens.find(key);
  EXPECT_NE(it, goldens.end()) << "no golden line for " << key;
  return it == goldens.end() ? missing : it->second;
}

enum class Mode { kNp, kGl, kBl };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kNp:
      return "NP";
    case Mode::kGl:
      return "GL";
    case Mode::kBl:
      return "BL";
  }
  return "?";
}

ProvenanceMode ToProvenanceMode(Mode mode) {
  switch (mode) {
    case Mode::kNp:
      return ProvenanceMode::kNone;
    case Mode::kBl:
      return ProvenanceMode::kBaseline;
    case Mode::kGl:
      return ProvenanceMode::kGenealog;
  }
  return ProvenanceMode::kNone;
}

// Builds and runs one cell, then digests it in the golden's column layout.
// The provenance file is read while the query is still alive: every
// provenance writer must have flushed by the time Run() returns.
template <typename Builder, typename Data>
CellDigest RunCell(const std::string& query, Builder&& builder,
                   const Data& data, Mode mode, bool distributed,
                   QueryBuildOptions options) {
  const std::string path = ::testing::TempDir() + "/dfeq_golden.bin";
  std::remove(path.c_str());
  std::string sink_lines;
  uint64_t sink_count = 0;
  options.mode = ToProvenanceMode(mode);
  options.distributed = distributed;
  if (mode != Mode::kNp) options.provenance_file = path;
  options.sink_consumer = [&](const TuplePtr& t) {
    sink_lines += std::to_string(t->ts) + "|" + t->DebugPayload() + "\n";
    ++sink_count;
  };

  BuiltDataflow q = builder(data, std::move(options));
  q.Run();
  std::string prov_fnv = "-";
  if (mode != Mode::kNp) {
    const std::vector<uint8_t> canonical = CanonicalProvenanceBytes(path);
    prov_fnv = Hex(Fnv1a(canonical.data(), canonical.size()));
  }
  CellDigest cell;
  cell.key = query + " " + ModeName(mode) + " " +
             (distributed ? "dist" : "intra");
  cell.outputs = std::to_string(sink_count) + " " + Hex(Fnv1a(sink_lines)) +
                 " " + std::to_string(q.provenance_records()) + " " +
                 prov_fnv;
  cell.structure = std::to_string(q.n_instances) + " " +
                   std::to_string(q.su_nodes.size()) + " " +
                   std::to_string(q.channels.size());
  std::remove(path.c_str());
  return cell;
}

// Every mode and deployment of one query against its golden lines, across
// batch {1, 64}. Distributed cells put compact frames on every channel.
template <typename Builder, typename Data>
void CheckQuery(const std::string& query, Builder builder, const Data& data) {
  for (const Mode mode : {Mode::kNp, Mode::kGl, Mode::kBl}) {
    for (const bool distributed : {false, true}) {
      for (const size_t batch : {size_t{1}, size_t{64}}) {
        SCOPED_TRACE(query + " " + ModeName(mode) +
                     (distributed ? " dist" : " intra") + " batch " +
                     std::to_string(batch));
        QueryBuildOptions options;
        options.batch_size = batch;
        const CellDigest cell =
            RunCell(query, builder, data, mode, distributed, options);
        const CellDigest& golden = Golden(cell.key);
        EXPECT_EQ(cell.outputs, golden.outputs);
        EXPECT_EQ(cell.structure, golden.structure);
      }
    }
  }
}

TEST(DataflowEquivalenceTest, GoldenFileCoversEveryCell) {
  EXPECT_EQ(Goldens().size(), 24u);
}

TEST(DataflowEquivalenceTest, Q1MatchesGolden) {
  CheckQuery("Q1", BuildQ1Fluent, SmallLr());
}

TEST(DataflowEquivalenceTest, Q2MatchesGolden) {
  CheckQuery("Q2", BuildQ2Fluent, AccidentLr());
}

TEST(DataflowEquivalenceTest, Q3MatchesGolden) {
  CheckQuery("Q3", BuildQ3Fluent, SmallSg());
}

TEST(DataflowEquivalenceTest, Q4MatchesGolden) {
  CheckQuery("Q4", BuildQ4Fluent, SmallSg());
}

// The key-partitioned lowering (`.KeyBy(car).Parallel(n)` inside
// BuildQ1Fluent when options.parallelism > 1) must be invisible at the sink
// and in the provenance file: for every shard count, scheduler and batch
// size, the sink and provenance digests equal the single-instance golden.
// The structure columns differ by design (per-replica SUs), so only the
// outputs are compared.
TEST(DataflowEquivalenceTest, Q1ParallelMatchesGoldenIntra) {
  const lr::LinearRoadData data = SmallLr();
  const CellDigest& golden = Golden("Q1 GL intra");
  for (const int shards : {1, 2, 4}) {
    for (const SchedulerMode scheduler :
         {SchedulerMode::kThreadPerNode, SchedulerMode::kPool}) {
      for (const size_t batch : {size_t{1}, size_t{64}}) {
        SCOPED_TRACE("shards " + std::to_string(shards) + " pool " +
                     std::to_string(scheduler == SchedulerMode::kPool) +
                     " batch " + std::to_string(batch));
        QueryBuildOptions options;
        options.parallelism = shards;
        options.scheduler = scheduler;
        if (scheduler == SchedulerMode::kPool) options.workers = 3;
        options.batch_size = batch;
        const CellDigest cell = RunCell("Q1", BuildQ1Fluent, data, Mode::kGl,
                                        /*distributed=*/false, options);
        EXPECT_EQ(cell.outputs, golden.outputs);
      }
    }
  }
}

// Same invariance across a deployment cut: the parallel stage lowers inside
// its instance and the distributed weaving (cut SUs, MU, provenance
// instance) composes with it unchanged.
TEST(DataflowEquivalenceTest, Q1ParallelMatchesGoldenDistributed) {
  const lr::LinearRoadData data = SmallLr();
  const CellDigest& golden = Golden("Q1 GL dist");
  for (const int shards : {2, 4}) {
    for (const size_t batch : {size_t{1}, size_t{64}}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " batch " +
                   std::to_string(batch));
      QueryBuildOptions options;
      options.parallelism = shards;
      options.batch_size = batch;
      const CellDigest cell = RunCell("Q1", BuildQ1Fluent, data, Mode::kGl,
                                      /*distributed=*/true, options);
      EXPECT_EQ(cell.outputs, golden.outputs);
    }
  }
}

}  // namespace
}  // namespace genealog::queries
