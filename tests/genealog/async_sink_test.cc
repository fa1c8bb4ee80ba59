// The asynchronous provenance sink must be invisible in the data: for a
// pinned unfolded stream, the on-disk provenance file must hold exactly the
// bytes the in-memory block encoder (genealog/provenance_record.h) makes of
// the same records — also when a tiny buffer cap (ProvenanceFileWriter's
// buffer_bytes argument) forces the double-buffer swap through many
// background handoffs mid-run. Ids and
// stimuli of the recorded tuples are pinned by construction, so the
// comparison really is byte-for-byte. A file that cannot take the bytes
// (/dev/full) must be reported as a write error. Runs under TSan in CI
// (repeated until-fail) to gate the producer/writer protocol.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "genealog/provenance_record.h"
#include "genealog/provenance_sink.h"
#include "spe/source.h"
#include "spe/topology.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// A pinned unfolded stream: per "sink tuple" ts, one derived tuple with a
// fan of origins, every id/stimulus fixed at construction. Shared across
// runs, so the serialized records cannot differ by construction.
struct PinnedStream {
  std::vector<IntrusivePtr<ValueTuple>> keep_alive;
  std::vector<IntrusivePtr<UnfoldedTuple>> unfolded;
  // The records the unfolded stream groups into, in derived-ts order.
  std::vector<ProvenanceRecord> records;
  // The provenance file the stream must produce: its records in derived-ts
  // order through the in-memory block encoder, sealed once at the end.
  std::string want_bytes;
  uint64_t want_blocks = 0;
};

PinnedStream MakePinnedStream(int n_records, int origins_per_record) {
  PinnedStream s;
  ProvenanceBlockEncoder encoder(/*file_header=*/true);
  uint64_t next_id = 1;
  for (int r = 0; r < n_records; ++r) {
    auto derived = V(r, 1000 + r);
    derived->id = next_id++;
    derived->stimulus = 7;  // pinned: wall clock must not leak into the file
    s.keep_alive.push_back(derived);
    ProvenanceRecord record;
    record.derived = derived;
    for (int o = 0; o < origins_per_record; ++o) {
      auto origin = V(r, 100 * r + o);
      origin->kind = TupleKind::kSource;
      origin->id = next_id++;
      origin->stimulus = 7;
      s.keep_alive.push_back(origin);
      record.origins.push_back(origin);
      auto u = MakeTuple<UnfoldedTuple>(derived->ts);
      u->derived = derived;
      u->derived_id = derived->id;
      u->derived_ts = derived->ts;
      u->origin = TuplePtr(origin.get());
      u->origin_id = origin->id;
      u->origin_ts = origin->ts;
      u->origin_kind = origin->kind;
      s.unfolded.push_back(std::move(u));
    }
    encoder.Add(record);
    s.records.push_back(std::move(record));
  }
  encoder.Seal();
  s.want_bytes.assign(encoder.sealed().begin(), encoder.sealed().end());
  s.want_blocks = encoder.blocks();
  return s;
}

// Streams the pinned unfolded tuples through a ProvenanceSinkNode writing
// to `path` and returns the node's write-error flag after the run.
bool RunSink(const PinnedStream& stream, const std::string& path) {
  Topology topo(1, ProvenanceMode::kGenealog);
  auto* source =
      topo.Add<VectorSourceNode<UnfoldedTuple>>("src", stream.unfolded);
  ProvenanceSinkSpec pso;
  pso.file_path = path;
  auto* prov = topo.Add<ProvenanceSinkNode>("k2", pso);
  topo.Connect(source, prov);
  RunToCompletion(topo);
  EXPECT_GT(prov->records(), 0u);
  EXPECT_EQ(prov->bytes_written(), stream.want_bytes.size());
  return prov->write_error();
}

// Runs the sink into a temporary file and returns the file contents.
std::string RunToFile(const PinnedStream& stream, const std::string& path) {
  EXPECT_FALSE(RunSink(stream, path));
  const std::string bytes = ReadAll(path);
  std::remove(path.c_str());
  return bytes;
}

// Writes the pinned records straight through a ProvenanceFileWriter whose
// buffers swap at `buffer_bytes`, and returns the file contents.
std::string WriteToFile(const PinnedStream& stream, const std::string& path,
                        size_t buffer_bytes) {
  {
    ProvenanceFileWriter writer("writer", path, buffer_bytes);
    for (const ProvenanceRecord& record : stream.records) writer.Write(record);
    writer.Flush();
    EXPECT_FALSE(writer.write_error());
    EXPECT_EQ(writer.bytes_written(), stream.want_bytes.size());
  }
  const std::string bytes = ReadAll(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(AsyncProvenanceSinkTest, FileBytesMatchSerializedRecords) {
  const PinnedStream stream = MakePinnedStream(400, 5);
  ASSERT_GT(stream.want_blocks, 1u);
  const std::string path = ::testing::TempDir() + "/prov_async_a.bin";
  EXPECT_EQ(RunToFile(stream, path), stream.want_bytes);
}

TEST(AsyncProvenanceSinkTest, TinyBufferForcesHandoffsAndStaysIdentical) {
  const PinnedStream stream = MakePinnedStream(600, 3);
  ASSERT_GT(stream.want_blocks, 1u);
  const std::string path = ::testing::TempDir() + "/prov_async_b.bin";
  EXPECT_EQ(RunToFile(stream, path), stream.want_bytes);
  EXPECT_EQ(WriteToFile(stream, path, /*buffer_bytes=*/256 * 1024),
            stream.want_bytes);
  // 48-byte buffers: every block spans many background handoffs.
  EXPECT_EQ(WriteToFile(stream, path, /*buffer_bytes=*/48), stream.want_bytes);
}

TEST(AsyncProvenanceSinkTest, FullDeviceReportsWriteError) {
  // The whole file fits in the writer's first buffer and in the stdio
  // buffer, so the bytes first fail at the end-of-stream fflush.
  const PinnedStream stream = MakePinnedStream(4, 2);
  EXPECT_TRUE(RunSink(stream, "/dev/full"));
}

}  // namespace
}  // namespace genealog
