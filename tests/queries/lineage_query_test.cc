// LineageQuery end-to-end: the store a live Q1 maintains online must answer
// exactly like a store rebuilt by replaying the provenance file the same run
// wrote (intra and distributed), the file bytes must be canonically
// identical with the store on or off (the store is off the emit path), and a
// query built without the store must hand out an invalid handle that throws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "genealog/lineage_query.h"
#include "genealog/lineage_store.h"
#include "lr/linear_road.h"
#include "queries/query_helpers.h"

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

std::vector<uint64_t> Ids(const std::vector<LineageQuery::Entry>& entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) ids.push_back(e.id);
  return ids;
}

// Every record's backward closure, keyed by derived id — the full answer
// surface of one store, comparable across live and replayed instances of the
// same run (ids persist in the file, so they match exactly).
std::map<uint64_t, std::vector<uint64_t>> AllContributors(
    const LineageQuery& query) {
  std::map<uint64_t, std::vector<uint64_t>> out;
  for (const uint64_t id : query.RetainedRecordIds()) {
    out[id] = Ids(query.Contributors(id));
  }
  return out;
}

QueryBuildOptions LineageOptionsFor(bool distributed,
                                    const std::string& file) {
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.distributed = distributed;
  options.lineage_store = true;
  options.provenance_file = file;
  return options;
}

void CheckLiveMatchesReplay(const BuiltDataflow& q, const std::string& file) {
  const LineageQuery live = q.lineage();
  ASSERT_TRUE(live.valid());

  LineageStore replayed;
  const uint64_t n = ReplayProvenanceFile(file, replayed);
  const LineageQuery offline(std::shared_ptr<const LineageStore>(
      &replayed, [](const LineageStore*) {}));

  const auto live_stats = live.Stats();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(live_stats.records_ingested, n);
  EXPECT_EQ(live_stats.records_retained, offline.Stats().records_retained);
  EXPECT_EQ(live_stats.tuples_retained, offline.Stats().tuples_retained);
  EXPECT_EQ(live_stats.edges_retained, offline.Stats().edges_retained);

  const auto live_answers = AllContributors(live);
  EXPECT_EQ(live_answers.size(), live_stats.records_retained);
  EXPECT_EQ(live_answers, AllContributors(offline));

  // Spot-check the rest of the query surface against the replayed store.
  for (const auto& [id, contributors] : live_answers) {
    ASSERT_FALSE(contributors.empty());
    EXPECT_EQ(Ids(live.Expand(id, 1)), contributors);
    const uint64_t origin = contributors.front();
    const auto forward = Ids(live.DerivedFrom(origin));
    EXPECT_TRUE(std::binary_search(forward.begin(), forward.end(), id));
    EXPECT_EQ(forward, Ids(offline.DerivedFrom(origin)));
    ASSERT_TRUE(live.Lookup(id).has_value());
    EXPECT_EQ(live.Lookup(id)->ts, offline.Lookup(id)->ts);
    break;  // one record suffices; the closure map covered them all
  }
}

TEST(LineageQueryTest, LiveQ1MatchesReplayedFileIntra) {
  const std::string file = ::testing::TempDir() + "/lq_intra.bin";
  auto q =
      BuildQ1Fluent(SmallLr(), LineageOptionsFor(/*distributed=*/false, file));
  q.Run();
  CheckLiveMatchesReplay(q, file);
  std::remove(file.c_str());
}

TEST(LineageQueryTest, LiveQ1MatchesReplayedFileDistributed) {
  const std::string file = ::testing::TempDir() + "/lq_dist.bin";
  auto q =
      BuildQ1Fluent(SmallLr(), LineageOptionsFor(/*distributed=*/true, file));
  q.Run();
  CheckLiveMatchesReplay(q, file);
  std::remove(file.c_str());
}

// The store must cost nothing when disabled: same canonical provenance
// bytes, no store allocated, throwing handle.
TEST(LineageQueryTest, FileBytesIdenticalWithStoreOnOrOff) {
  const std::string file_on = ::testing::TempDir() + "/lq_on.bin";
  const std::string file_off = ::testing::TempDir() + "/lq_off.bin";
  const lr::LinearRoadData data = SmallLr();

  auto on =
      BuildQ1Fluent(data, LineageOptionsFor(/*distributed=*/false, file_on));
  on.Run();
  QueryBuildOptions off_options =
      LineageOptionsFor(/*distributed=*/false, file_off);
  off_options.lineage_store = false;
  auto off = BuildQ1Fluent(data, off_options);
  off.Run();

  EXPECT_NE(on.lineage_store, nullptr);
  EXPECT_EQ(off.lineage_store, nullptr);
  EXPECT_EQ(CanonicalProvenanceBytes(file_on),
            CanonicalProvenanceBytes(file_off));
  std::remove(file_on.c_str());
  std::remove(file_off.c_str());
}

TEST(LineageQueryTest, DisabledStoreYieldsInvalidHandle) {
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.lineage_store = false;
  auto q = BuildQ1Fluent(SmallLr(), options);
  q.Run();
  const LineageQuery query = q.lineage();
  EXPECT_FALSE(query.valid());
  EXPECT_THROW(query.Contributors(1), std::logic_error);
  EXPECT_THROW(query.Stats(), std::logic_error);
}

}  // namespace
}  // namespace genealog::queries
