// The on-disk provenance format must be readable back: each record is the
// serialized sink tuple, a u32 origin count, then the serialized origins —
// the "stored on disk" artifact of §7, consumable by external tooling.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "core/type_registry.h"
#include "queries/query_helpers.h"

namespace genealog::queries {
namespace {

struct FileRecord {
  TuplePtr derived;
  std::vector<TuplePtr> origins;
};

std::vector<FileRecord> ReadProvenanceFile(const std::string& path) {
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
    record.derived = DeserializeTuple(reader);
    const uint32_t n = reader.GetU32();
    for (uint32_t i = 0; i < n; ++i) {
      record.origins.push_back(DeserializeTuple(reader));
    }
    records.push_back(std::move(record));
  }
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

  auto file_records = ReadProvenanceFile(path);
  ASSERT_EQ(file_records.size(), run.records.size());
  for (const FileRecord& record : file_records) {
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

  auto gl_records = ReadProvenanceFile(gl_path);
  auto bl_records = ReadProvenanceFile(bl_path);
  ASSERT_EQ(gl_records.size(), bl_records.size());
  // Same records (payload-wise), either order within equal timestamps.
  auto Canon = [](const std::vector<FileRecord>& records) {
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

  std::vector<FileRecord> records;
  EXPECT_NO_THROW(records = ReadProvenanceFile(path));
  EXPECT_EQ(records.size(), q.provenance_records());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<uint64_t>(std::ftell(f)),
            q.baseline_resolver->bytes_written());
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

  auto intra_records = ReadProvenanceFile(intra_path);
  auto dist_records = ReadProvenanceFile(dist_path);
  EXPECT_EQ(intra_records.size(), dist_records.size());
  ASSERT_FALSE(intra_records.empty());
  std::remove(intra_path.c_str());
  std::remove(dist_path.c_str());
}

}  // namespace
}  // namespace genealog::queries
