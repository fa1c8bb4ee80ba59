// LineageStore snapshots: a snapshot saved under concurrent ingest must
// restore to identical Stats and identical closures; corrupt, truncated and
// byte-flipped snapshot files must be rejected with named errors (never a
// crash or a silently wrong store); saving is atomic (tmp + rename, no
// partial file at the target path). Select predicate semantics ride along
// here since the snapshot fixtures exercise the same store shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "genealog/lineage_query.h"
#include "genealog/lineage_store.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;

uint64_t MakeId(uint64_t node_uid, uint64_t seq) {
  return (node_uid << 40) | seq;
}

void IngestChain(LineageStore& store, int n_records, uint64_t* seq,
                 int64_t ts_base = 0) {
  for (int i = 0; i < n_records; ++i) {
    ProvenanceRecord rec;
    const int64_t ts = ts_base + i;
    auto d = V(ts, i);
    d->id = MakeId(9, (*seq)++);
    rec.derived = TuplePtr(d.get());
    rec.derived_id = d->id;
    rec.derived_ts = ts;
    const int n_origins = 1 + i % 3;
    for (int o = 0; o < n_origins; ++o) {
      auto src = V(ts - 1, 100 * i + o);
      src->id = MakeId(1 + static_cast<uint64_t>(o), (*seq)++);
      rec.origins.push_back(TuplePtr(src.get()));
    }
    store.Ingest(rec);
  }
}

void ExpectSameStats(const LineageStore::Stats& a,
                     const LineageStore::Stats& b) {
  EXPECT_EQ(a.records_ingested, b.records_ingested);
  EXPECT_EQ(a.records_retained, b.records_retained);
  EXPECT_EQ(a.tuples_retained, b.tuples_retained);
  EXPECT_EQ(a.edges_retained, b.edges_retained);
  EXPECT_EQ(a.records_evicted, b.records_evicted);
  EXPECT_EQ(a.epochs_evicted, b.epochs_evicted);
  EXPECT_EQ(a.bytes_retained, b.bytes_retained);
  EXPECT_EQ(a.node_uids, b.node_uids);
  EXPECT_EQ(a.min_retained_ts, b.min_retained_ts);
  EXPECT_EQ(a.max_retained_ts, b.max_retained_ts);
}

std::vector<uint64_t> Ids(const std::vector<LineageStore::Entry>& entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) ids.push_back(e.id);
  return ids;
}

// Full answer surface: every retained record's backward closure plus every
// entry the default Select sees.
void ExpectSameClosures(const LineageStore& a, const LineageStore& b) {
  const auto ids_a = a.RetainedRecordIds();
  ASSERT_EQ(ids_a, b.RetainedRecordIds());
  for (const uint64_t id : ids_a) {
    EXPECT_EQ(Ids(a.Contributors(id)), Ids(b.Contributors(id))) << id;
    EXPECT_EQ(Ids(a.Expand(id, 2)), Ids(b.Expand(id, 2))) << id;
  }
  const auto all_a = a.Select({});
  const auto all_b = b.Select({});
  ASSERT_EQ(all_a.size(), all_b.size());
  for (size_t i = 0; i < all_a.size(); ++i) {
    EXPECT_EQ(all_a[i].id, all_b[i].id);
    EXPECT_EQ(all_a[i].ts, all_b[i].ts);
    EXPECT_EQ(all_a[i].tuple->DebugPayload(), all_b[i].tuple->DebugPayload());
    EXPECT_EQ(Ids(a.DerivedFrom(all_a[i].id)), Ids(b.DerivedFrom(all_b[i].id)));
  }
}

TEST(LineageSnapshotTest, SaveRestoreRoundTripsStatsAndClosures) {
  const std::string path = ::testing::TempDir() + "/snap_roundtrip.bin";
  LineageOptions lo;
  lo.epoch_records = 16;
  lo.retain_records = 200;  // forces evictions: sealed + partial epochs
  LineageStore store(lo);
  uint64_t seq = 1;
  IngestChain(store, 500, &seq);
  ASSERT_GT(store.stats().records_evicted, 0u);
  store.SaveSnapshot(path);

  LineageStore restored(lo);
  const uint64_t n = restored.LoadSnapshot(path);
  EXPECT_EQ(n, store.stats().records_retained);
  ExpectSameStats(restored.stats(), store.stats());
  ExpectSameClosures(restored, store);

  // The restored store keeps working: further ingest and eviction behave.
  IngestChain(restored, 100, &seq, /*ts_base=*/500);
  EXPECT_EQ(restored.stats().records_ingested,
            store.stats().records_ingested + 100);
  std::remove(path.c_str());
}

TEST(LineageSnapshotTest, EmptyStoreRoundTrips) {
  const std::string path = ::testing::TempDir() + "/snap_empty.bin";
  LineageStore store;
  store.SaveSnapshot(path);
  LineageStore restored;
  EXPECT_EQ(restored.LoadSnapshot(path), 0u);
  ExpectSameStats(restored.stats(), store.stats());
  std::remove(path.c_str());
}

TEST(LineageSnapshotTest, LoadRequiresEmptyStore) {
  const std::string path = ::testing::TempDir() + "/snap_nonempty.bin";
  LineageStore store;
  uint64_t seq = 1;
  IngestChain(store, 5, &seq);
  store.SaveSnapshot(path);
  EXPECT_THROW(store.LoadSnapshot(path), std::logic_error);
  std::remove(path.c_str());
}

// The acceptance scenario: a console snapshots the store *while* the
// topology is still ingesting. The snapshot is a consistent point-in-time
// image — restoring it yields a store whose Stats and closures are exactly
// those of some prefix of the ingest stream.
TEST(LineageSnapshotTest, SnapshotUnderLoadRestoresConsistentImage) {
  const std::string dir = ::testing::TempDir();
  LineageOptions lo;
  lo.epoch_records = 8;
  LineageStore store(lo);

  std::atomic<bool> done{false};
  std::vector<std::string> paths;
  std::thread snapshotter([&] {
    int i = 0;
    // The first snapshot runs unconditionally: if ingest outruns thread
    // startup, a post-ingest snapshot is still a valid consistent image.
    while (i < 20 && (i == 0 || !done.load(std::memory_order_acquire))) {
      const std::string path =
          dir + "/snap_load_" + std::to_string(i++) + ".bin";
      store.SaveSnapshot(path);
      paths.push_back(path);
    }
  });
  uint64_t seq = 1;
  IngestChain(store, 1000, &seq);
  done.store(true, std::memory_order_release);
  snapshotter.join();

  ASSERT_FALSE(paths.empty());
  for (const auto& path : paths) {
    LineageStore restored(lo);
    const uint64_t n = restored.LoadSnapshot(path);
    const auto stats = restored.stats();
    EXPECT_EQ(stats.records_retained, n);
    EXPECT_LE(stats.records_ingested, 1000u);
    // Closures of the image agree with the live store for records the live
    // store still answers identically (prefix property: the live store only
    // ever adds records; with no retention bound nothing was evicted).
    for (const uint64_t id : restored.RetainedRecordIds()) {
      EXPECT_EQ(Ids(restored.Contributors(id)), Ids(store.Contributors(id)));
    }
    std::remove(path.c_str());
  }
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

TEST(LineageSnapshotTest, SaveIsAtomicNoPartialTargetFile) {
  // Unwritable tmp location: SaveSnapshot must throw and leave no file at
  // the target path (the tmp + rename protocol never exposes partials).
  LineageStore store;
  uint64_t seq = 1;
  IngestChain(store, 5, &seq);
  const std::string path = "/nonexistent-dir/snap.bin";
  EXPECT_THROW(store.SaveSnapshot(path), std::runtime_error);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);

  // Overwrite: an existing snapshot is replaced wholesale.
  const std::string target = ::testing::TempDir() + "/snap_atomic.bin";
  store.SaveSnapshot(target);
  IngestChain(store, 5, &seq);
  store.SaveSnapshot(target);
  LineageStore restored;
  EXPECT_EQ(restored.LoadSnapshot(target), store.stats().records_retained);

  // A saver killed mid-write leaves a torn <path>.tmp beside the previous
  // snapshot: that snapshot still loads, and the next save replaces the
  // stale tmp and renames it away.
  const std::string tmp = target + ".tmp";
  const std::vector<uint8_t> previous = ReadAll(target);
  WriteAll(tmp, std::vector<uint8_t>(previous.begin(),
                                     previous.begin() + previous.size() / 2));
  const uint64_t previous_retained = store.stats().records_retained;
  LineageStore after_kill;
  EXPECT_EQ(after_kill.LoadSnapshot(target), previous_retained);
  IngestChain(store, 5, &seq);
  ASSERT_NE(store.stats().records_retained, previous_retained);
  store.SaveSnapshot(target);
  f = std::fopen(tmp.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "stale tmp survived the save";
  if (f != nullptr) std::fclose(f);
  LineageStore next;
  EXPECT_EQ(next.LoadSnapshot(target), store.stats().records_retained);
  std::remove(target.c_str());
}

TEST(LineageSnapshotTest, CorruptSnapshotsAreRejected) {
  const std::string path = ::testing::TempDir() + "/snap_corrupt.bin";
  const std::string bad = ::testing::TempDir() + "/snap_corrupt_bad.bin";
  LineageStore store(LineageOptions{0, 0, 16});
  uint64_t seq = 1;
  IngestChain(store, 64, &seq);
  store.SaveSnapshot(path);
  const std::vector<uint8_t> good = ReadAll(path);

  {  // missing file
    LineageStore s;
    EXPECT_THROW(s.LoadSnapshot(::testing::TempDir() + "/no_such_snap.bin"),
                 std::runtime_error);
  }
  // Every strict prefix must be rejected: header cuts fail the header checks,
  // payload cuts fail the declared-size or checksum checks.
  for (size_t len = 0; len < good.size();
       len += 1 + len / 16) {  // dense at the front, sparser later
    WriteAll(bad, std::vector<uint8_t>(good.begin(), good.begin() + len));
    LineageStore s;
    EXPECT_THROW(s.LoadSnapshot(bad), std::runtime_error) << "prefix " << len;
  }
  {  // trailing junk after the payload
    auto padded = good;
    padded.push_back(0xAB);
    WriteAll(bad, padded);
    LineageStore s;
    EXPECT_THROW(s.LoadSnapshot(bad), std::runtime_error);
  }

  // 200 random byte flips: the checksum (or a header check) must catch every
  // flip — a flipped snapshot must never load into a silently wrong store.
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupt = good;
    corrupt[rng() % corrupt.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    WriteAll(bad, corrupt);
    LineageStore s;
    EXPECT_THROW(s.LoadSnapshot(bad), std::runtime_error) << "trial " << trial;
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

// Version 1 snapshots held raw-layout records; version 2 holds provenance
// blocks (genealog/provenance_record.h). A version-1 file, even with an
// intact payload checksum, is rejected by name rather than mis-decoded.
TEST(LineageSnapshotTest, VersionOneSnapshotIsRejectedByName) {
  const std::string path = ::testing::TempDir() + "/snap_v1.bin";
  LineageStore store;
  uint64_t seq = 1;
  IngestChain(store, 8, &seq);
  store.SaveSnapshot(path);
  std::vector<uint8_t> bytes = ReadAll(path);
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));  // after the magic
  WriteAll(path, bytes);
  LineageStore s;
  try {
    s.LoadSnapshot(path);
    ADD_FAILURE() << "a version-1 snapshot loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(s.stats().records_ingested, 0u);
  std::remove(path.c_str());
}

// --- Select semantics (in-process; the service test covers the wire) -------

TEST(LineageSelectTest, PredicatesNarrowTheScan) {
  LineageStore store;
  uint64_t seq = 1;
  // Records at ts 0..19, each with 1..3 origins at ts-1 (uids 1..3, derived
  // uid 9).
  IngestChain(store, 20, &seq);

  const auto all = store.Select({});
  const auto stats = store.stats();
  EXPECT_EQ(all.size(), stats.tuples_retained);
  // Sorted by (ts, id).
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(all[i - 1].ts < all[i].ts ||
                (all[i - 1].ts == all[i].ts && all[i - 1].id < all[i].id));
  }

  LineagePredicate span;
  span.min_ts = 5;
  span.max_ts = 9;
  for (const auto& e : store.Select(span)) {
    EXPECT_GE(e.ts, 5);
    EXPECT_LE(e.ts, 9);
  }
  // Inclusive bounds: a degenerate range hits exactly one event time.
  LineagePredicate point;
  point.min_ts = 7;
  point.max_ts = 7;
  const auto at7 = store.Select(point);
  ASSERT_FALSE(at7.empty());
  for (const auto& e : at7) EXPECT_EQ(e.ts, 7);

  LineagePredicate records;
  records.records_only = true;
  const auto roots = store.Select(records);
  EXPECT_EQ(roots.size(), stats.records_retained);
  for (const auto& e : roots) EXPECT_EQ(e.id >> 40, 9u);

  LineagePredicate node;
  node.has_node_uid = true;
  node.node_uid = 9;
  EXPECT_EQ(Ids(store.Select(node)), Ids(roots));
  node.node_uid = 12345;  // never interned
  EXPECT_TRUE(store.Select(node).empty());

  LineagePredicate limited;
  limited.limit = 3;
  const auto first3 = store.Select(limited);
  ASSERT_EQ(first3.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(first3[i].id, all[i].id);

  // Composition: span + records_only + limit.
  LineagePredicate combo;
  combo.min_ts = 5;
  combo.max_ts = 15;
  combo.records_only = true;
  combo.limit = 4;
  const auto combined = store.Select(combo);
  ASSERT_EQ(combined.size(), 4u);
  for (const auto& e : combined) {
    EXPECT_GE(e.ts, 5);
    EXPECT_LE(e.ts, 15);
    EXPECT_EQ(e.id >> 40, 9u);
  }
}

TEST(LineageSelectTest, QueryHandleExposesSelect) {
  auto store = std::make_shared<LineageStore>();
  uint64_t seq = 1;
  IngestChain(*store, 10, &seq);
  const LineageQuery query(store);
  LineagePredicate p;
  p.records_only = true;
  EXPECT_EQ(query.Select(p).size(), 10u);
}

}  // namespace
}  // namespace genealog
