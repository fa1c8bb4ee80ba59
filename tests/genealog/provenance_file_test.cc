// The on-disk provenance format (genealog/provenance_record.h) must be
// readable back — the "stored on disk" artifact of §7, consumable by external
// tooling — and a malformed file must be rejected with an error naming the
// file and the record, never a crash or an allocation the input cannot back.
// GL and BL write through one file writer, so both report a failed write.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/type_registry.h"
#include "genealog/lineage_store.h"
#include "queries/query_helpers.h"

namespace genealog::queries {
namespace {

std::vector<ProvenanceRecord> ReadRecords(const std::string& path) {
  std::vector<ProvenanceRecord> records;
  ReadProvenanceFile(path, [&records](ProvenanceRecord& record) {
    records.push_back(std::move(record));
  });
  return records;
}

TEST(ProvenanceFileTest, GlFileRoundTripsThroughDeserializer) {
  lr::LinearRoadConfig config;
  config.n_cars = 20;
  config.duration_s = 1200;
  config.stop_probability = 0.03;
  config.seed = 17;
  auto data = lr::GenerateLinearRoad(config);

  const std::string path = ::testing::TempDir() + "/gl_prov.bin";
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.provenance_file = path;
  auto run = RunQuery(BuildQ1Fluent, data, options);
  ASSERT_FALSE(run.records.empty());

  auto file_records = ReadRecords(path);
  ASSERT_EQ(file_records.size(), run.records.size());
  for (const ProvenanceRecord& record : file_records) {
    EXPECT_EQ(record.derived->type_tag(), lr::StoppedCarStats::kTypeTag);
    EXPECT_EQ(record.origins.size(), 4u);
    for (const TuplePtr& origin : record.origins) {
      EXPECT_EQ(origin->type_tag(), lr::PositionReport::kTypeTag);
      EXPECT_EQ(origin->kind, TupleKind::kSource);
      EXPECT_EQ(static_cast<const lr::PositionReport&>(*origin).speed, 0.0);
    }
  }
  std::remove(path.c_str());
}

TEST(ProvenanceFileTest, BlFileHasIdenticalFormat) {
  lr::LinearRoadConfig config;
  config.n_cars = 20;
  config.duration_s = 1200;
  config.stop_probability = 0.03;
  config.seed = 17;
  auto data = lr::GenerateLinearRoad(config);

  const std::string gl_path = ::testing::TempDir() + "/gl_prov2.bin";
  const std::string bl_path = ::testing::TempDir() + "/bl_prov2.bin";
  QueryBuildOptions gl;
  gl.mode = ProvenanceMode::kGenealog;
  gl.provenance_file = gl_path;
  RunQuery(BuildQ1Fluent, data, gl);
  QueryBuildOptions bl;
  bl.mode = ProvenanceMode::kBaseline;
  bl.provenance_file = bl_path;
  RunQuery(BuildQ1Fluent, data, bl);

  auto gl_records = ReadRecords(gl_path);
  auto bl_records = ReadRecords(bl_path);
  ASSERT_EQ(gl_records.size(), bl_records.size());
  // Same records (payload-wise), either order within equal timestamps.
  auto Canon = [](const std::vector<ProvenanceRecord>& records) {
    std::vector<std::string> out;
    for (const auto& record : records) {
      std::string s = std::to_string(record.derived->ts) + "|" +
                      record.derived->DebugPayload();
      std::vector<std::string> origins;
      for (const auto& o : record.origins) {
        origins.push_back(std::to_string(o->ts) + "/" + o->DebugPayload());
      }
      std::sort(origins.begin(), origins.end());
      for (const auto& o : origins) s += ";" + o;
      out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(Canon(gl_records), Canon(bl_records));
  std::remove(gl_path.c_str());
  std::remove(bl_path.c_str());
}

// The baseline resolver's file must be complete when Run() returns, not
// only once the query is destroyed: probes (and the golden-digest suite)
// read it while the built dataflow, and with it the resolver's FILE*, is
// still alive. An unflushed tail reads as a truncated record.
TEST(ProvenanceFileTest, BlFileIsCompleteWhileQueryIsAlive) {
  lr::LinearRoadConfig config;
  config.n_cars = 30;
  config.duration_s = 1800;
  config.stop_probability = 0.03;
  config.seed = 17;
  auto data = lr::GenerateLinearRoad(config);

  const std::string path = ::testing::TempDir() + "/bl_alive.bin";
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kBaseline;
  options.provenance_file = path;
  BuiltDataflow q = BuildQ1Fluent(data, options);
  q.Run();
  ASSERT_NE(q.baseline_resolver, nullptr);
  ASSERT_GT(q.provenance_records(), 0u);

  std::vector<ProvenanceRecord> records;
  EXPECT_NO_THROW(records = ReadRecords(path));
  EXPECT_EQ(records.size(), q.provenance_records());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<uint64_t>(std::ftell(f)),
            q.baseline_resolver->output().bytes_written());
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(ProvenanceFileTest, DistributedRunWritesSameRecordsAsIntra) {
  lr::LinearRoadConfig config;
  config.n_cars = 15;
  config.duration_s = 900;
  config.stop_probability = 0.04;
  config.seed = 19;
  auto data = lr::GenerateLinearRoad(config);

  const std::string intra_path = ::testing::TempDir() + "/intra_prov.bin";
  const std::string dist_path = ::testing::TempDir() + "/dist_prov.bin";
  QueryBuildOptions intra;
  intra.mode = ProvenanceMode::kGenealog;
  intra.provenance_file = intra_path;
  RunQuery(BuildQ1Fluent, data, intra);
  QueryBuildOptions dist;
  dist.mode = ProvenanceMode::kGenealog;
  dist.distributed = true;
  dist.provenance_file = dist_path;
  RunQuery(BuildQ1Fluent, data, dist);

  auto intra_records = ReadRecords(intra_path);
  auto dist_records = ReadRecords(dist_path);
  EXPECT_EQ(intra_records.size(), dist_records.size());
  ASSERT_FALSE(intra_records.empty());
  std::remove(intra_path.c_str());
  std::remove(dist_path.c_str());
}

lr::LinearRoadData SmallQ1Data() {
  lr::LinearRoadConfig config;
  config.n_cars = 20;
  config.duration_s = 1200;
  config.stop_probability = 0.03;
  config.seed = 17;
  return lr::GenerateLinearRoad(config);
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// A file cut one byte short reads as truncated, and the error names the file
// and the torn record, so an operator can find the tear.
TEST(ProvenanceFileTest, TruncatedFileErrorNamesFileAndRecord) {
  const std::string path = ::testing::TempDir() + "/prov_trunc.bin";
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.provenance_file = path;
  RunQuery(BuildQ1Fluent, SmallQ1Data(), options);
  const uint64_t n_records = ReadRecords(path).size();
  std::vector<uint8_t> bytes = ReadFileBytes(path, "provenance file");
  ASSERT_GT(n_records, 0u);
  bytes.pop_back();
  WriteBytes(path, bytes);
  LineageStore store;
  try {
    ReplayProvenanceFile(path, store);
    ADD_FAILURE() << "a truncated provenance file replayed";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("record " + std::to_string(n_records - 1)),
              std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

// An origin count the file cannot hold is rejected before anything is
// reserved for it: std::out_of_range, not std::bad_alloc.
TEST(ProvenanceFileTest, OversizedOriginCountIsRejected) {
  auto derived = MakeTuple<lr::StoppedCarStats>(5, 1, 4, 0, 0);
  ByteWriter w;
  SerializeTuple(*derived, w);
  w.PutU32(0xFFFFFFFFu);
  const std::string path = ::testing::TempDir() + "/prov_huge_count.bin";
  WriteBytes(path, w.bytes());
  LineageStore store;
  try {
    ReplayProvenanceFile(path, store);
    ADD_FAILURE() << "an oversized origin count replayed";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("origin count 4294967295"), std::string::npos)
        << what;
  }
  EXPECT_EQ(store.stats().records_ingested, 0u);
  std::remove(path.c_str());
}

// BL writes through the same file writer as GL, so a file that cannot take
// the bytes is reported by write_error() and one stderr warning, as
// AsyncProvenanceSinkTest.FullDeviceReportsWriteError pins for GL.
TEST(ProvenanceFileTest, BlFullDeviceReportsWriteError) {
  const lr::LinearRoadData data = SmallQ1Data();
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kBaseline;
  options.provenance_file = "/dev/full";
  ::testing::internal::CaptureStderr();
  {
    BuiltDataflow q = BuildQ1Fluent(data, options);
    q.Run();
    ASSERT_NE(q.baseline_resolver, nullptr);
    EXPECT_GT(q.provenance_records(), 0u);
    EXPECT_TRUE(q.baseline_resolver->output().write_error());
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  const std::string warning = "background write to /dev/full failed";
  const size_t first = err.find(warning);
  ASSERT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find(warning, first + 1), std::string::npos) << err;
}

}  // namespace
}  // namespace genealog::queries
