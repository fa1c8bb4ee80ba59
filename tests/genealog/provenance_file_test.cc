// The on-disk provenance format (genealog/provenance_record.h) must be
// readable back — the "stored on disk" artifact of §7, consumable by external
// tooling. A reader sees a prefix of whole blocks: a torn or corrupt block is
// rejected with an error naming the file, the block and its offset, after
// the records of the blocks before it, never a crash, a torn record or an
// allocation the input cannot back. Each distinct origin is written once
// per block, and only an exact repeat becomes a back-reference. GL and BL
// write through one file writer, so both report a failed write.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "core/type_registry.h"
#include "genealog/lineage_store.h"
#include "genealog/unfolded.h"
#include "queries/query_helpers.h"
#include "testing/test_tuples.h"

namespace genealog::queries {
namespace {

using genealog::testing::V;
using genealog::testing::ValueTuple;

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
  if (!bytes.empty()) {  // an empty vector's data() may be null
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

// The SerializeTuple bytes of a record, to compare records field by field.
std::vector<uint8_t> RecordBytes(const ProvenanceRecord& record) {
  ByteWriter w;
  SerializeTuple(*record.derived, w);
  for (const TuplePtr& o : record.origins) SerializeTuple(*o, w);
  return w.TakeBytes();
}

std::vector<std::vector<uint8_t>> AllRecordBytes(
    const std::vector<ProvenanceRecord>& records) {
  std::vector<std::vector<uint8_t>> out;
  for (const ProvenanceRecord& r : records) out.push_back(RecordBytes(r));
  return out;
}

// A Q1-shaped record: one derived tuple and four source origins, with ids,
// timestamps and stimuli advancing as a live stream's do.
ProvenanceRecord MakeRecord(int i) {
  ProvenanceRecord rec;
  auto derived = V(60 * i, i);
  derived->id = (uint64_t{9} << 40) | static_cast<uint64_t>(i + 1);
  derived->kind = TupleKind::kAggregate;
  derived->stimulus = 1'000'000 + 37 * i;
  rec.derived = derived;
  rec.derived_id = derived->id;
  rec.derived_ts = derived->ts;
  for (int o = 0; o < 4; ++o) {
    auto origin = V(60 * i - 15 * o, 100 * i + o);
    origin->id = (uint64_t{2} << 40) | static_cast<uint64_t>(4 * i + o + 1);
    origin->kind = TupleKind::kSource;
    origin->stimulus = 1'000'000 + 37 * i - o;
    rec.origins.push_back(origin);
  }
  return rec;
}

// A sliding-window record, as consecutive Q1 alerts of one stopped car are:
// record i's four origins are source tuples i..i+3, so it shares three with
// record i-1.
ProvenanceRecord MakeSlidingRecord(int i) {
  ProvenanceRecord rec;
  auto derived = V(15 * i + 45, i);
  derived->id = (uint64_t{9} << 40) | static_cast<uint64_t>(i + 1);
  derived->kind = TupleKind::kAggregate;
  derived->stimulus = 1'000'000 + 15 * i + 45;
  rec.derived = derived;
  rec.derived_id = derived->id;
  rec.derived_ts = derived->ts;
  for (int k = 0; k < 4; ++k) {
    const int s = i + k;
    auto origin = V(15 * s, 100 * s);
    origin->id = (uint64_t{2} << 40) | static_cast<uint64_t>(s + 1);
    origin->kind = TupleKind::kSource;
    origin->stimulus = 1'000'000 + 15 * s;
    rec.origins.push_back(origin);
  }
  return rec;
}

// Where each block of a provenance file starts, read off the block headers
// (genealog/provenance_record.h: an 8-byte file header, then per block
// u32 body bytes | u32 record count | u64 checksum | body).
struct BlockSpan {
  size_t offset = 0;
  uint32_t records = 0;
};

std::vector<BlockSpan> Blocks(const std::vector<uint8_t>& file) {
  std::vector<BlockSpan> blocks;
  ByteReader r(file);
  r.GetU64();  // magic + version
  while (!r.AtEnd()) {
    BlockSpan b;
    b.offset = r.position();
    const uint32_t body = r.GetU32();
    b.records = r.GetU32();
    r.GetU64();
    r.GetView(body);
    blocks.push_back(b);
  }
  return blocks;
}

// Writes records of `make` through a ProvenanceFileWriter until it has
// sealed two full blocks, then five more into a short third block, and
// returns what it wrote.
std::vector<ProvenanceRecord> WriteThreeBlockFile(
    const std::string& path, ProvenanceRecord (*make)(int) = MakeRecord) {
  std::vector<ProvenanceRecord> written;
  ProvenanceFileWriter writer("test", path, 4096);
  int i = 0;
  for (; writer.bytes_written() < 2 * kProvenanceBlockBytes; ++i) {
    written.push_back(make(i));
    writer.Write(written.back());
  }
  for (int end = i + 5; i < end; ++i) {
    written.push_back(make(i));
    writer.Write(written.back());
  }
  writer.Flush();
  return written;
}

// Reads `path` until the reader throws, returning the delivered records and
// the error, which must be of type E.
template <typename E>
std::pair<std::vector<ProvenanceRecord>, std::string> ReadUntilThrow(
    const std::string& path) {
  std::vector<ProvenanceRecord> got;
  try {
    ReadProvenanceFile(path, [&got](ProvenanceRecord& r) {
      got.push_back(std::move(r));
    });
  } catch (const E& e) {
    return {std::move(got), e.what()};
  }
  ADD_FAILURE() << path << " read without the expected error";
  return {std::move(got), ""};
}

TEST(ProvenanceFileTest, WriterRoundTripsRecordsAcrossBlocks) {
  const std::string path = ::testing::TempDir() + "/prov_blocks.bin";
  const auto written = WriteThreeBlockFile(path);
  const std::vector<uint8_t> bytes = ReadFileBytes(path, "provenance file");
  ASSERT_EQ(Blocks(bytes).size(), 3u);
  EXPECT_EQ(AllRecordBytes(ReadRecords(path)), AllRecordBytes(written));
  std::remove(path.c_str());
}

// A file cut anywhere inside its last block hands over exactly the records
// of the blocks before it, then throws naming the file and the torn block:
// a reader never sees part of a block.
TEST(ProvenanceFileTest, TornLastBlockDeliversEarlierBlocksThenThrows) {
  const std::string path = ::testing::TempDir() + "/prov_torn_src.bin";
  const std::string cut = ::testing::TempDir() + "/prov_torn.bin";
  const auto written = AllRecordBytes(WriteThreeBlockFile(path));
  const std::vector<uint8_t> bytes = ReadFileBytes(path, "provenance file");
  const std::vector<BlockSpan> blocks = Blocks(bytes);
  ASSERT_EQ(blocks.size(), 3u);
  const size_t earlier = blocks[0].records + blocks[1].records;
  const std::vector<std::vector<uint8_t>> want(written.begin(),
                                               written.begin() + earlier);
  for (size_t len = blocks[2].offset + 1; len < bytes.size(); ++len) {
    WriteBytes(cut, std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    auto [got, what] = ReadUntilThrow<std::out_of_range>(cut);
    ASSERT_EQ(AllRecordBytes(got), want) << "cut at " << len;
    EXPECT_NE(what.find(cut), std::string::npos) << what;
    EXPECT_NE(what.find("block 2 at byte " +
                        std::to_string(blocks[2].offset)),
              std::string::npos)
        << what;
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

// A cut exactly at a block boundary leaves whole blocks: it reads cleanly.
TEST(ProvenanceFileTest, CutAtBlockBoundaryReadsCleanly) {
  const std::string path = ::testing::TempDir() + "/prov_cut_src.bin";
  const std::string cut = ::testing::TempDir() + "/prov_cut.bin";
  const auto written = AllRecordBytes(WriteThreeBlockFile(path));
  const std::vector<uint8_t> bytes = ReadFileBytes(path, "provenance file");
  const std::vector<BlockSpan> blocks = Blocks(bytes);
  size_t records = 0;
  // The empty file, the bare header and every whole-block prefix.
  std::vector<std::pair<size_t, size_t>> cuts = {{0, 0}};
  for (const BlockSpan& b : blocks) {
    cuts.emplace_back(b.offset, records);
    records += b.records;
  }
  for (const auto& [len, n] : cuts) {
    WriteBytes(cut, std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    std::vector<ProvenanceRecord> got;
    ASSERT_NO_THROW(got = ReadRecords(cut)) << "cut at " << len;
    EXPECT_EQ(AllRecordBytes(got),
              std::vector<std::vector<uint8_t>>(written.begin(),
                                                written.begin() + n));
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

// One flipped body byte fails the block's checksum, by name, after the
// earlier blocks' records.
TEST(ProvenanceFileTest, FlippedBodyByteFailsTheChecksum) {
  const std::string path = ::testing::TempDir() + "/prov_flip.bin";
  WriteThreeBlockFile(path);
  std::vector<uint8_t> bytes = ReadFileBytes(path, "provenance file");
  const std::vector<BlockSpan> blocks = Blocks(bytes);
  bytes[blocks[1].offset + 16 + 100] ^= 0x01;
  WriteBytes(path, bytes);
  auto [got, what] = ReadUntilThrow<std::runtime_error>(path);
  EXPECT_EQ(got.size(), blocks[0].records);
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find("block 1 at byte " + std::to_string(blocks[1].offset)),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("checksum"), std::string::npos) << what;
  std::remove(path.c_str());
}

// A block length past the end of the file is a torn block, named, and
// nothing is read or reserved for it: std::out_of_range, not bad_alloc.
TEST(ProvenanceFileTest, BlockLengthPastTheEndFailsByName) {
  const std::string path = ::testing::TempDir() + "/prov_long_block.bin";
  WriteThreeBlockFile(path);
  std::vector<uint8_t> bytes = ReadFileBytes(path, "provenance file");
  const std::vector<BlockSpan> blocks = Blocks(bytes);
  const uint32_t huge = 0xFFFFFFF0u;
  std::memcpy(bytes.data() + blocks[1].offset, &huge, sizeof(huge));
  WriteBytes(path, bytes);
  auto [got, what] = ReadUntilThrow<std::out_of_range>(path);
  EXPECT_EQ(got.size(), blocks[0].records);
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find("block 1"), std::string::npos) << what;
  EXPECT_NE(what.find("4294967280-byte body runs past the end"),
            std::string::npos)
      << what;
  std::remove(path.c_str());
}

// Every block decodes alone from its offset to the records a full read
// gives: the coder's dictionaries, delta bases and origin table start fresh
// per block. The sliding records repeat origins across every block boundary,
// so a block whose first record pointed back into the previous block would
// fail here.
TEST(ProvenanceFileTest, OneBlockDecodesAloneFromItsOffset) {
  for (const auto make : {MakeRecord, MakeSlidingRecord}) {
    const std::string path = ::testing::TempDir() + "/prov_alone.bin";
    const auto written = AllRecordBytes(WriteThreeBlockFile(path, make));
    const auto full = AllRecordBytes(ReadRecords(path));
    EXPECT_EQ(full, written);
    const std::vector<uint8_t> bytes = ReadFileBytes(path, "provenance file");
    size_t first = 0;
    for (const BlockSpan& b : Blocks(bytes)) {
      ByteReader r(bytes.data() + b.offset, bytes.size() - b.offset);
      std::vector<std::vector<uint8_t>> got;
      EXPECT_EQ(ReadProvenanceBlock(r, "block alone", 0,
                                    [&got](ProvenanceRecord& rec) {
                                      got.push_back(RecordBytes(rec));
                                    }),
                b.records);
      EXPECT_EQ(got,
                std::vector<std::vector<uint8_t>>(
                    full.begin() + first, full.begin() + first + b.records));
      first += b.records;
    }
    EXPECT_EQ(first, full.size());
    std::remove(path.c_str());
  }
}

// Sliding-window records write each shared origin once per block: they
// round-trip field by field, every repeat of an origin in a block decodes
// to the one tuple its first occurrence did, and the file is smaller than
// the same records with every origin given an id of its own (same ts,
// stimulus and payload), so that none repeats.
TEST(ProvenanceFileTest, RepeatedOriginsRoundTripAsBackReferences) {
  const std::string shared_path = ::testing::TempDir() + "/prov_shared.bin";
  const std::string distinct_path =
      ::testing::TempDir() + "/prov_distinct.bin";
  constexpr int kRecords = 200;
  std::vector<ProvenanceRecord> written;
  uint64_t shared_bytes = 0;
  uint64_t distinct_bytes = 0;
  {
    ProvenanceFileWriter shared("test", shared_path, 4096);
    ProvenanceFileWriter distinct("test", distinct_path, 4096);
    for (int i = 0; i < kRecords; ++i) {
      written.push_back(MakeSlidingRecord(i));
      shared.Write(written.back());
      ProvenanceRecord unshared = MakeSlidingRecord(i);
      for (size_t k = 0; k < unshared.origins.size(); ++k) {
        unshared.origins[k]->id = (uint64_t{2} << 40) | (4 * i + k + 1);
      }
      distinct.Write(unshared);
    }
    shared.Flush();
    distinct.Flush();
    shared_bytes = shared.bytes_written();
    distinct_bytes = distinct.bytes_written();
  }
  const std::vector<ProvenanceRecord> got = ReadRecords(shared_path);
  EXPECT_EQ(AllRecordBytes(got), AllRecordBytes(written));
  EXPECT_EQ(ReadRecords(distinct_path).size(), written.size());

  const std::vector<uint8_t> file = ReadFileBytes(shared_path, "test");
  ASSERT_EQ(file.size(), shared_bytes);
  ASSERT_EQ(Blocks(file).size(), 1u);  // so every repeat is in one block
  for (size_t i = 1; i < got.size(); ++i) {
    for (size_t k = 0; k + 1 < 4; ++k) {
      EXPECT_EQ(got[i].origins[k].get(), got[i - 1].origins[k + 1].get())
          << "record " << i << " origin " << k;
    }
  }
  // Three of four origins become back-references of a byte or two.
  EXPECT_LT(shared_bytes * 4, distinct_bytes * 3)
      << shared_bytes << " vs " << distinct_bytes;
  std::remove(shared_path.c_str());
  std::remove(distinct_path.c_str());
}

// A back-reference needs the whole origin to match, not just its id: an
// origin reusing an earlier origin's id with another payload, ts, stimulus
// or kind, or carrying a baseline annotation the first lacks, is written in
// full and decodes to its own bytes.
TEST(ProvenanceFileTest, OriginAliasingAnEarlierIdIsWrittenInFull) {
  const ProvenanceRecord base = MakeRecord(0);
  const TuplePtr& first = base.origins[0];
  const auto alias = [&first](int64_t ts, int64_t value) {
    auto t = V(ts, value);
    t->id = first->id;
    t->kind = first->kind;
    t->stimulus = first->stimulus;
    return t;
  };
  const int64_t value = static_cast<const ValueTuple&>(*first).value;
  std::vector<TuplePtr> aliases;
  aliases.push_back(alias(first->ts, value + 1));  // payload
  aliases.push_back(alias(first->ts + 1, value));  // ts
  aliases.push_back(alias(first->ts, value));
  aliases.back()->stimulus += 1;
  aliases.push_back(alias(first->ts, value));
  aliases.back()->kind = TupleKind::kAggregate;
  aliases.push_back(alias(first->ts, value));
  aliases.back()->set_baseline_annotation({7, 9});
  aliases.push_back(alias(first->ts, value));  // the same tuple: a reference

  std::vector<ProvenanceRecord> written{base};
  for (size_t i = 0; i < aliases.size(); ++i) {
    ProvenanceRecord rec = MakeRecord(static_cast<int>(i) + 1);
    rec.origins[0] = aliases[i];
    written.push_back(std::move(rec));
  }
  const std::string path = ::testing::TempDir() + "/prov_alias.bin";
  {
    ProvenanceFileWriter writer("test", path, 4096);
    for (const ProvenanceRecord& rec : written) writer.Write(rec);
  }
  const std::vector<ProvenanceRecord> got = ReadRecords(path);
  ASSERT_EQ(got.size(), written.size());
  EXPECT_EQ(AllRecordBytes(got), AllRecordBytes(written));
  for (size_t i = 1; i < got.size(); ++i) {
    const bool same_tuple = i == got.size() - 1;
    EXPECT_EQ(got[i].origins[0].get() == got[0].origins[0].get(), same_tuple)
        << "record " << i;
  }
  std::remove(path.c_str());
}

// BL origins carry a baseline annotation (a source tuple's is {own id}). A
// repeat with the same annotation is a back-reference like any other, while
// an origin reusing the id with another annotation is written in full.
TEST(ProvenanceFileTest, AnnotatedRepeatIsABackReference) {
  constexpr int kRecords = 50;
  std::vector<ProvenanceRecord> written;
  for (int i = 0; i < kRecords; ++i) {
    written.push_back(MakeSlidingRecord(i));
    for (const TuplePtr& o : written.back().origins) {
      o->set_baseline_annotation({o->id});
    }
  }
  ProvenanceRecord relabelled = MakeSlidingRecord(kRecords - 1);
  for (const TuplePtr& o : relabelled.origins) {
    o->set_baseline_annotation({o->id});
  }
  relabelled.origins[0]->set_baseline_annotation(
      {relabelled.origins[0]->id, 1});
  written.push_back(std::move(relabelled));

  const std::string path = ::testing::TempDir() + "/prov_annotated.bin";
  {
    ProvenanceFileWriter writer("test", path, 4096);
    for (const ProvenanceRecord& rec : written) writer.Write(rec);
  }
  const std::vector<ProvenanceRecord> got = ReadRecords(path);
  ASSERT_EQ(got.size(), written.size());
  EXPECT_EQ(AllRecordBytes(got), AllRecordBytes(written));
  ASSERT_EQ(Blocks(ReadFileBytes(path, "test")).size(), 1u);
  for (int i = 1; i < kRecords; ++i) {
    for (size_t k = 0; k + 1 < 4; ++k) {
      EXPECT_EQ(got[i].origins[k].get(), got[i - 1].origins[k + 1].get())
          << "record " << i << " origin " << k;
    }
  }
  // The relabelled origin shares its id with record kRecords-1's first
  // origin but not its annotation: its own tuple, its own annotation.
  const ProvenanceRecord& last = got.back();
  EXPECT_NE(last.origins[0].get(), got[kRecords - 1].origins[0].get());
  EXPECT_EQ(last.origins[1].get(), got[kRecords - 1].origins[1].get());
  ASSERT_NE(last.origins[0]->baseline_annotation(), nullptr);
  EXPECT_EQ(last.origins[0]->baseline_annotation()->size(), 2u);
  std::remove(path.c_str());
}

// A back-reference past the origins the block wrote in full is rejected,
// even under a valid checksum, naming the file, the block and the record;
// nothing of the block reaches the consumer.
TEST(ProvenanceFileTest, DanglingBackReferenceFailsByName) {
  const ProvenanceRecord rec = MakeRecord(0);
  ByteWriter body;
  CompactTupleEncoder coder;
  PutVarint(body, 1);  // record 0: one origin, written in full
  coder.Put(body, *rec.derived, rec.derived->kind, WireRole::kDerived);
  coder.PutOrigin(body, *rec.origins[0]);
  PutVarint(body, 2);  // record 1: a reference to origin 0, then origin 1
  coder.Put(body, *rec.derived, rec.derived->kind, WireRole::kDerived);
  PutVarint(body, (0 << 1) | 1);
  PutVarint(body, (1 << 1) | 1);
  ByteWriter w;
  w.PutU32(0x46504C47);  // "GLPF"
  w.PutU32(2);
  w.PutU32(static_cast<uint32_t>(body.size()));
  w.PutU32(2);
  w.PutU64(Fnv1a(body.bytes().data(), body.size()));
  w.PutBytes(body.bytes().data(), body.size());
  const std::string path = ::testing::TempDir() + "/prov_dangling.bin";
  WriteBytes(path, w.bytes());
  auto [got, what] = ReadUntilThrow<std::runtime_error>(path);
  EXPECT_TRUE(got.empty());
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find("block 0 at byte 8: record 1: compact tuple: dangling "
                      "origin reference 1"),
            std::string::npos)
      << what;
  std::remove(path.c_str());
}

// Version 1 files wrote every origin in full; a reader rejects one by
// version instead of mis-decoding its origins.
TEST(ProvenanceFileTest, VersionOneFileIsRejectedByName) {
  const std::string path = ::testing::TempDir() + "/prov_v1.bin";
  WriteThreeBlockFile(path);
  std::vector<uint8_t> bytes = ReadFileBytes(path, "provenance file");
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));  // after the magic
  WriteBytes(path, bytes);
  auto [got, what] = ReadUntilThrow<std::runtime_error>(path);
  EXPECT_TRUE(got.empty());
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find("unsupported provenance file version 1"),
            std::string::npos)
      << what;
  std::remove(path.c_str());
}

// A writer destroyed without a Flush (a node torn down before its OnFlush)
// seals its open block on the way out: the file decodes as whole blocks,
// every written record in it.
TEST(ProvenanceFileTest, WriterDestroyedBeforeFlushLeavesWholeBlocks) {
  const std::string path = ::testing::TempDir() + "/prov_no_flush.bin";
  std::vector<std::vector<uint8_t>> written;
  {
    ProvenanceFileWriter writer("test", path, 4096);
    for (int i = 0; i < 700; ++i) {
      const ProvenanceRecord rec = MakeRecord(i);
      written.push_back(RecordBytes(rec));
      writer.Write(rec);
    }
  }
  EXPECT_EQ(AllRecordBytes(ReadRecords(path)), written);
  EXPECT_GT(Blocks(ReadFileBytes(path, "provenance file")).size(), 1u);
  std::remove(path.c_str());
}

// The coder never nests an unfolded tuple, so a record holding one is
// refused before anything is written: the block stays decodable.
TEST(ProvenanceFileTest, UnfoldedTupleInARecordIsRefusedWhole) {
  ProvenanceBlockEncoder encoder(/*file_header=*/true);
  ProvenanceRecord bad = MakeRecord(0);
  bad.origins.push_back(MakeTuple<UnfoldedTuple>(0));
  EXPECT_THROW(encoder.Add(bad), std::invalid_argument);
  const ProvenanceRecord good = MakeRecord(1);
  encoder.Add(good);
  encoder.Seal();
  const std::string path = ::testing::TempDir() + "/prov_refused.bin";
  WriteBytes(path, encoder.sealed());
  EXPECT_EQ(AllRecordBytes(ReadRecords(path)),
            std::vector<std::vector<uint8_t>>{RecordBytes(good)});
  std::remove(path.c_str());
}

// An origin count the block cannot hold is rejected before anything is
// reserved for it, naming the file, the block and the record; nothing of
// the block reaches the consumer.
TEST(ProvenanceFileTest, OversizedOriginCountIsRejected) {
  auto derived = MakeTuple<lr::StoppedCarStats>(5, 1, 4, 0, 0);
  ByteWriter body;
  PutVarint(body, 0xFFFFFFFFu);
  CompactTupleEncoder coder;
  coder.Put(body, *derived, derived->kind, WireRole::kDerived);
  ByteWriter w;
  w.PutU32(0x46504C47);  // "GLPF"
  w.PutU32(2);
  w.PutU32(static_cast<uint32_t>(body.size()));
  w.PutU32(1);
  w.PutU64(Fnv1a(body.bytes().data(), body.size()));
  w.PutBytes(body.bytes().data(), body.size());
  const std::string path = ::testing::TempDir() + "/prov_huge_count.bin";
  WriteBytes(path, w.bytes());
  LineageStore store;
  try {
    ReplayProvenanceFile(path, store);
    ADD_FAILURE() << "an oversized origin count replayed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("block 0 at byte 8: record 0: origin count "
                        "4294967295"),
              std::string::npos)
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
