// The provenance plane's fast paths must be invisible in the data: full Q1
// GL runs (intra-process and distributed) must record the same provenance
// and produce identical (exactly ordered) sink streams across
// GENEALOG_EPOCH_TRAVERSAL × GENEALOG_ASYNC_PROV_SINK. The epoch mark-word
// traversal and the double-buffered async writer can change only where time
// is spent, never what is recorded. Cross-run equality is checked on the
// parsed records in canonical order, like the repo's other determinism
// suites: raw file bytes embed per-run wall-clock stimuli and
// node-uid-derived ids, and record *file order* follows watermark arrival
// granularity, which is timing-dependent even between two identically
// configured runs. The byte-for-byte guarantees are pinned where they are
// well-defined: async on/off over a pinned input stream
// (genealog/async_sink_test) and epoch vs. pointer-set BFS sequences
// (genealog/traversal_fuzz_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/type_registry.h"
#include "genealog/traversal.h"
#include "lr/linear_road.h"
#include "queries/queries.h"
#include "queries/query_helpers.h"

namespace genealog::queries {
namespace {

// One record parsed back from the file, canonicalized to the run-independent
// fields (ts + payload; ids and stimuli differ run to run).
struct FileRecord {
  int64_t derived_ts;
  std::string derived;
  std::vector<std::string> origins;  // sorted
  bool operator==(const FileRecord&) const = default;
  auto operator<=>(const FileRecord&) const = default;
};

std::vector<FileRecord> ParseProvenanceFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  std::vector<FileRecord> records;
  ByteReader reader(bytes);
  while (!reader.AtEnd()) {
    FileRecord record;
    TuplePtr derived = DeserializeTuple(reader);
    record.derived_ts = derived->ts;
    record.derived = derived->DebugPayload();
    const uint32_t n = reader.GetU32();
    for (uint32_t i = 0; i < n; ++i) {
      TuplePtr origin = DeserializeTuple(reader);
      record.origins.push_back(std::to_string(origin->ts) + "/" +
                               origin->DebugPayload());
    }
    std::sort(record.origins.begin(), record.origins.end());
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end());
  return records;
}

class ProvenancePlaneDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { epoch_was_ = EpochTraversalEnabled(); }
  void TearDown() override { SetEpochTraversal(epoch_was_); }

 private:
  bool epoch_was_ = true;
};

lr::LinearRoadData SmallLr() {
  lr::LinearRoadConfig config;
  config.n_cars = 30;
  config.duration_s = 1800;
  config.stop_probability = 0.03;
  config.seed = 23;
  return lr::GenerateLinearRoad(config);
}

struct Q1Artifacts {
  std::vector<FileRecord> records;          // provenance file, canonical order
  std::vector<std::string> ordered_sink;    // sink stream, in emission order
};

Q1Artifacts RunQ1(const lr::LinearRoadData& data, bool epoch, bool async,
                  bool distributed) {
  SetEpochTraversal(epoch);
  const std::string path = ::testing::TempDir() + "/prov_plane_sweep.bin";
  Q1Artifacts out;
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.distributed = distributed;
  options.provenance_file = path;
  options.async_prov_sink = async;
  options.sink_consumer = [&out](const TuplePtr& t) {
    out.ordered_sink.push_back(std::to_string(t->ts) + "|" +
                               t->DebugPayload());
  };
  BuiltDataflow q = BuildQ1Fluent(data, options);
  q.Run();
  out.records = ParseProvenanceFile(path);
  std::remove(path.c_str());
  return out;
}

void SweepAgainstReference(const lr::LinearRoadData& data, bool distributed) {
  const Q1Artifacts reference =
      RunQ1(data, /*epoch=*/false, /*async=*/false, distributed);
  ASSERT_FALSE(reference.records.empty());
  for (const bool epoch : {false, true}) {
    for (const bool async : {false, true}) {
      if (!epoch && !async) continue;
      const Q1Artifacts got = RunQ1(data, epoch, async, distributed);
      EXPECT_EQ(got.records, reference.records)
          << "epoch=" << epoch << " async=" << async;
      EXPECT_EQ(got.ordered_sink, reference.ordered_sink)
          << "epoch=" << epoch << " async=" << async;
    }
  }
}

TEST_F(ProvenancePlaneDeterminismTest, IntraSweepRecordsIdentical) {
  SweepAgainstReference(SmallLr(), /*distributed=*/false);
}

TEST_F(ProvenancePlaneDeterminismTest,
       DistributedSweepRecordsIdentical) {
  SweepAgainstReference(SmallLr(), /*distributed=*/true);
}

}  // namespace
}  // namespace genealog::queries
