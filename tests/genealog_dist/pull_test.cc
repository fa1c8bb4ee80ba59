// Pull-based U streams (genealog/pull.h): the edge retention index, the
// serving node's echo, the MU-side demand step, and the whole protocol on a
// hand-wired three-instance deployment, including a stalled request
// watermark and a slow edge link.
//
//   I1: Source -> Map(x2) -> SU.send0 (pull) -> send.data0
//       send.U0 = UServeNode over channel U0
//   I2: recv.data0 -> Aggregate(w) -> Filter(even windows) -> SU.sink -> K
//       SU.sink's U -> send.U_sink
//   I3: recv.U_sink (+ UDemand) -> MU port 0; recv.U0 -> MU port 1
//       MU -> K2
//
// The Map makes every delivering tuple REMOTE at I2, so every record needs
// its origins from the edge; the Filter drops every other window, so half
// the retained tuples are never requested.
#include "genealog/pull.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "genealog/mu.h"
#include "genealog/provenance_sink.h"
#include "genealog/su.h"
#include "net/channel.h"
#include "net/send_receive.h"
#include "spe/aggregate.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using namespace std::chrono_literals;
using testing::V;
using testing::ValueTuple;

// --- retention index ----------------------------------------------------------

TuplePtr Delivering(int64_t ts, uint64_t id,
                    TupleKind kind = TupleKind::kMap) {
  auto t = V(ts, ts);
  t->id = id;
  t->kind = kind;
  return t;
}

TEST(RetentionIndexTest, TakeEvictAndClearAccountForEveryTuple) {
  RetentionIndex index("SU.test", RetentionSpec{.ws = 5});
  const std::vector<TuplePtr> batch = {
      Delivering(1, 101), Delivering(2, 102),
      Delivering(3, 103, TupleKind::kSource),  // crosses as SOURCE: skipped
      Delivering(4, 104), Delivering(20, 120)};
  ASSERT_EQ(index.Retain(batch), batch.size());
  EXPECT_EQ(index.retained(), 4u);
  EXPECT_EQ(index.size(), 4u);

  TuplePtr out;
  ASSERT_TRUE(index.Take(102, 2, out));
  EXPECT_EQ(out->id, 102u);
  EXPECT_FALSE(index.Take(102, 2, out));  // already served
  EXPECT_FALSE(index.Take(999, 10, out));  // another channel's tuple

  // Frontier 10 evicts ts + 5 < 10: ids 101 (unrequested) and the taken
  // 102's slot; 104 (ts 4 + 5 = 9 < 10) too.
  index.AdvanceFrontier(10);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.requested(), 1u);
  EXPECT_EQ(index.evicted_unrequested(), 2u);

  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.evicted_unrequested(), 3u);
  EXPECT_EQ(index.retained(), index.requested() + index.evicted_unrequested());
}

TEST(RetentionIndexTest, RequestBelowTheEvictionHorizonIsANamedError) {
  RetentionIndex index("SU.send7", RetentionSpec{.ws = 5});
  ASSERT_EQ(index.Retain(std::vector<TuplePtr>{Delivering(1, 101)}), 1u);
  index.AdvanceFrontier(100);  // horizon 95: id 101 is gone
  TuplePtr out;
  try {
    index.Take(101, 1, out);
    FAIL() << "a request below the eviction horizon was answered silently";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SU.send7"), std::string::npos) << what;
    EXPECT_NE(what.find("101"), std::string::npos) << what;
    EXPECT_NE(what.find("horizon 95"), std::string::npos) << what;
  }
  // At the horizon it is merely not held.
  EXPECT_FALSE(index.Take(555, 95, out));
}

TEST(RetentionIndexTest, FullIndexStopsRetainingUntilTheFrontierEvicts) {
  RetentionIndex index("SU.test", RetentionSpec{.ws = 0, .capacity = 4});
  std::vector<TuplePtr> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(Delivering(i, 100 + i));
  ASSERT_EQ(index.Retain(batch), 4u);  // the bound, not the batch
  std::atomic<bool> room{false};
  std::thread producer([&] {
    EXPECT_TRUE(index.AwaitRoom());
    room.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(room.load()) << "AwaitRoom returned on a full index";
  EXPECT_EQ(index.size(), 4u);
  index.AdvanceFrontier(2);  // evicts ts 0 and 1
  producer.join();
  EXPECT_TRUE(room.load());
  EXPECT_EQ(index.Retain(std::span<const TuplePtr>(batch).subspan(4)), 2u);
  EXPECT_EQ(index.size(), 4u);
  EXPECT_EQ(index.peak(), 4u);
  EXPECT_EQ(index.retained(), 6u);
}

TEST(RetentionIndexTest, StalledFrontierRaisesANamedError) {
  RetentionIndex index("SU.send3", RetentionSpec{.ws = 0,
                                                 .capacity = 2,
                                                 .stall_timeout = 100ms});
  std::vector<TuplePtr> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(Delivering(i, 100 + i));
  ASSERT_EQ(index.Retain(batch), 2u);
  try {
    index.AwaitRoom();
    FAIL() << "a full index with a stalled frontier did not fail";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SU.send3"), std::string::npos) << what;
    EXPECT_NE(what.find("full at 2"), std::string::npos) << what;
  }
  EXPECT_EQ(index.size(), 2u);
}

TEST(RetentionIndexTest, AbortWakesAWaitingProducer) {
  RetentionIndex index("SU.test", RetentionSpec{.ws = 0, .capacity = 1});
  ASSERT_EQ(index.Retain(std::vector<TuplePtr>{Delivering(0, 100)}), 1u);
  std::thread producer([&] { EXPECT_FALSE(index.AwaitRoom()); });
  std::this_thread::sleep_for(20ms);
  index.Abort();
  producer.join();
  EXPECT_EQ(index.Retain(std::vector<TuplePtr>{Delivering(1, 101)}), 0u);
}

// --- serving node ---------------------------------------------------------------

// A delivering tuple with a one-tuple contribution graph: a MAP tuple over
// one SOURCE tuple.
TuplePtr MapOver(int64_t ts, uint64_t id, TuplePtr source) {
  auto t = V(ts, ts * 2);
  t->id = id;
  t->kind = TupleKind::kMap;
  t->set_u1(source.get());
  return t;
}

TEST(UServeNodeTest, AnswersThenEchoesTheRequestWatermarkExactly) {
  Topology edge(1, ProvenanceMode::kGenealog);
  auto* su = edge.Add<SuNode>("SU.send0", RetentionSpec{.ws = 50});
  InMemoryChannel channel;
  auto* server = edge.Add<UServeNode>("send.U0", su, &channel);

  const TuplePtr s1 = V(7, 7);
  const TuplePtr s2 = V(8, 8);
  s1->id = 1;
  s2->id = 2;
  ASSERT_EQ(su->retention()->Retain(std::vector<TuplePtr>{
                MapOver(10, 501, s1), MapOver(11, 502, s2)}),
            2u);

  PullRequest request;
  request.entries = {{502, 11}};
  request.watermark = 100;
  ASSERT_TRUE(channel.SendReverse(EncodeRequestFrame(request)));
  ASSERT_TRUE(channel.SendReverse(EncodeFlushFrame()));
  ASSERT_EQ(server->Step(kUnbounded), StepResult::kDone);

  // Forward: the one unfolded tuple, then watermark 100 itself (not
  // 100 - ws), then the flush.
  FrameDecoder decoder;
  std::vector<uint8_t> frame;
  std::vector<TuplePtr> tuples;
  std::vector<int64_t> watermarks;
  bool flushed = false;
  while (channel.RecvFrame(frame)) {
    DecodedFrame d = decoder.Decode(frame);
    if (d.kind == FrameKind::kFlush) {
      flushed = true;
      continue;
    }
    for (TuplePtr& t : d.tuples) tuples.push_back(t);
    if (d.watermark != kNoWatermark) {
      EXPECT_EQ(tuples.size(), 1u) << "watermark overtook the response";
      watermarks.push_back(d.watermark);
    }
  }
  EXPECT_TRUE(flushed);
  ASSERT_EQ(tuples.size(), 1u);
  const auto& u = static_cast<const UnfoldedTuple&>(*tuples[0]);
  EXPECT_EQ(u.derived_id, 502u);
  EXPECT_EQ(u.origin_id, 2u);
  EXPECT_EQ(u.origin_kind, TupleKind::kSource);
  EXPECT_EQ(watermarks, (std::vector<int64_t>{100}));

  // 501 was never asked for: released at the end, unrequested.
  EXPECT_EQ(su->retention()->retained(), 2u);
  EXPECT_EQ(su->retention()->requested(), 1u);
  EXPECT_EQ(su->retention()->evicted_unrequested(), 1u);
  EXPECT_EQ(su->traversal_count(), 1u);
  EXPECT_GT(server->wire_stats().frames, 0u);
}

TEST(UServeNodeTest, RequestDirectionClosedWithoutFlushIsANamedError) {
  Topology edge(1, ProvenanceMode::kGenealog);
  auto* su = edge.Add<SuNode>("SU.send0", RetentionSpec{.ws = 5});
  InMemoryChannel channel;
  auto* server = edge.Add<UServeNode>("send.U0", su, &channel);
  channel.CloseReverse();
  try {
    server->Step(kUnbounded);
    FAIL() << "a request direction closed without flush read as a clean end";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("send.U0"), std::string::npos);
  }
}

// --- demand step -----------------------------------------------------------------

IntrusivePtr<UnfoldedTuple> DerivedU(int64_t ts, uint64_t origin_id,
                                     int64_t origin_ts,
                                     TupleKind origin_kind) {
  auto u = MakeTuple<UnfoldedTuple>(ts);
  u->derived = V(ts, 0);
  u->derived_id = 1;
  u->derived_ts = ts;
  u->origin = V(origin_ts, 0);
  u->origin->kind = origin_kind;
  u->origin->id = origin_id;
  u->origin_id = origin_id;
  u->origin_ts = origin_ts;
  u->origin_kind = origin_kind;
  return u;
}

TEST(UDemandTest, AsksEveryUpstreamForTheRemoteOriginsTheJoinCanUse) {
  InMemoryChannel u0;
  InMemoryChannel u1;
  UDemand demand("recv.U_sink", /*ws=*/10, {{"U0", &u0}, {"U1", &u1}});

  DecodedFrame frame;
  frame.kind = FrameKind::kCompactBatch;
  frame.tuples = {
      DerivedU(100, 7, 95, TupleKind::kRemote),   // asked
      DerivedU(100, 8, 80, TupleKind::kRemote),   // 20 > ws apart: never
      DerivedU(100, 9, 100, TupleKind::kSource),  // the MU forwards it
      DerivedU(101, 7, 95, TupleKind::kRemote),   // same id: asked once
      DerivedU(101, 6, 110, TupleKind::kRemote),  // later origin, in ws
  };
  frame.watermark = 90;
  demand.OnFrame(frame);
  // A frame with nothing new asks nothing.
  DecodedFrame stale;
  stale.kind = FrameKind::kCompactBatch;
  stale.watermark = 90;
  demand.OnFrame(stale);
  demand.OnEnd();

  for (InMemoryChannel* ch : {&u0, &u1}) {
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ch->RecvReverse(bytes));
    const PullRequest request = DecodeRequestFrame(bytes);
    EXPECT_EQ(request.entries,
              (std::vector<PullRequestEntry>{{7, 95}, {6, 110}}));
    EXPECT_EQ(request.watermark, 90);
    ASSERT_TRUE(ch->RecvReverse(bytes));
    EXPECT_EQ(bytes[0], static_cast<uint8_t>(FrameKind::kFlush));
    EXPECT_FALSE(ch->RecvReverse(bytes));  // closed after the flush
  }
  EXPECT_EQ(demand.wire_stats().frames, 4u);  // (request + flush) x 2
}

TEST(UDemandTest, ClosedRequestDirectionNamesTheChannel) {
  InMemoryChannel u0;
  u0.CloseReverse();
  UDemand demand("recv.U_sink", 10, {{"U0", &u0}});
  DecodedFrame frame;
  frame.kind = FrameKind::kCompactBatch;
  frame.watermark = 5;
  try {
    demand.OnFrame(frame);
    FAIL() << "a send on a closed request direction went unnoticed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("U0"), std::string::npos);
  }
}

// --- the protocol end to end -----------------------------------------------------

// Wraps an in-memory channel: forward frames can be slowed (a slow edge
// link), reverse frames held back while the gate is closed (a stalled
// request watermark) and released in order by Open().
class TestChannel final : public ByteChannel {
 public:
  explicit TestChannel(std::chrono::microseconds forward_delay = 0us,
                       bool gated = false)
      : delay_(forward_delay), open_(!gated) {}

  void Open() {
    std::lock_guard lock(mu_);
    for (std::vector<uint8_t>& f : held_) inner_.SendReverse(std::move(f));
    held_.clear();
    if (close_held_) inner_.CloseReverse();
    open_ = true;
  }

  bool SendFrame(std::vector<uint8_t> frame) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    return inner_.SendFrame(std::move(frame));
  }
  bool RecvFrame(std::vector<uint8_t>& frame) override {
    return inner_.RecvFrame(frame);
  }
  void CloseSend() override { inner_.CloseSend(); }
  void Abort() override { inner_.Abort(); }
  bool SendReverse(std::vector<uint8_t> frame) override {
    std::lock_guard lock(mu_);
    if (open_) return inner_.SendReverse(std::move(frame));
    held_.push_back(std::move(frame));
    return true;
  }
  bool RecvReverse(std::vector<uint8_t>& frame) override {
    return inner_.RecvReverse(frame);
  }
  void CloseReverse() override {
    std::lock_guard lock(mu_);
    if (open_) {
      inner_.CloseReverse();
    } else {
      close_held_ = true;
    }
  }
  uint64_t bytes_sent() const override { return inner_.bytes_sent(); }

 private:
  InMemoryChannel inner_;
  std::chrono::microseconds delay_;
  std::mutex mu_;
  bool open_;
  bool close_held_ = false;
  std::vector<std::vector<uint8_t>> held_;
};

struct Record {
  int64_t derived_ts;
  std::vector<int64_t> origin_ts;  // sorted
  bool operator==(const Record&) const = default;
  auto operator<=>(const Record&) const = default;
};

struct PipelineResult {
  std::vector<Record> records;  // sorted
  std::vector<int64_t> sink_ts;
  uint64_t retained = 0;
  uint64_t requested = 0;
  uint64_t evicted_unrequested = 0;
  size_t peak = 0;
};

constexpr int kTuples = 400;
constexpr int64_t kWindow = 10;

// Runs the deployment in the header comment. `pull` false wires the paper's
// push form (SU with a U output, SendNode) as the reference. `during` runs on
// the calling thread while the deployment executes.
PipelineResult RunPipeline(bool pull, TestChannel& u_channel,
                           RetentionSpec retention = {},
                           const std::function<void(SuNode*)>& during = {}) {
  std::vector<IntrusivePtr<ValueTuple>> data;
  for (int i = 0; i < kTuples; ++i) data.push_back(V(i, i));
  InMemoryChannel ch_data;
  InMemoryChannel ch_u_sink;
  Topology i1(1, ProvenanceMode::kGenealog);
  Topology i2(2, ProvenanceMode::kGenealog);
  Topology i3(3, ProvenanceMode::kGenealog);

  auto* source = i1.Add<VectorSourceNode<ValueTuple>>("source", std::move(data));
  auto* map = i1.Add<MapNode<ValueTuple, ValueTuple>>(
      "double", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        out.Emit(MakeTuple<ValueTuple>(0, in.value * 2));
      });
  retention.ws = kWindow;
  auto* su_send = pull ? i1.Add<SuNode>("SU.send0", retention)
                       : i1.Add<SuNode>("SU.send0");
  auto* send_data = i1.Add<SendNode>("send.data0", &ch_data);
  i1.Connect(source, map);
  i1.Connect(map, su_send);
  i1.Connect(su_send, send_data);
  if (pull) {
    i1.Add<UServeNode>("send.U0", su_send, &u_channel);
  } else {
    i1.Connect(su_send, i1.Add<SendNode>("send.U0", &u_channel));
  }

  auto* recv_data = i2.Add<ReceiveNode>("recv.data0", &ch_data);
  auto* agg = i2.Add<AggregateNode<ValueTuple, ValueTuple>>(
      "agg", AggregateOptions{kWindow, kWindow},
      [](const ValueTuple&) { return int64_t{0}; },
      [](const WindowView<ValueTuple, int64_t>& w) {
        int64_t sum = 0;
        for (const auto& t : w.tuples) sum += t->value;
        return MakeTuple<ValueTuple>(0, sum);
      });
  auto* even = i2.Add<FilterNode<ValueTuple>>(
      "even", [](const ValueTuple& t) { return (t.ts / kWindow) % 2 == 0; });
  auto* su_sink = i2.Add<SuNode>("SU.sink");
  PipelineResult result;
  auto* sink = i2.Add<SinkNode>(
      "K", [&result](const TuplePtr& t) { result.sink_ts.push_back(t->ts); });
  auto* send_u_sink = i2.Add<SendNode>("send.U_sink", &ch_u_sink);
  i2.Connect(recv_data, agg);
  i2.Connect(agg, even);
  i2.Connect(even, su_sink);
  i2.Connect(su_sink, sink);
  i2.Connect(su_sink, send_u_sink);

  auto* recv_u_sink = i3.Add<ReceiveNode>("recv.U_sink", &ch_u_sink);
  auto* recv_u = i3.Add<ReceiveNode>("recv.U0", &u_channel);
  if (pull) {
    recv_u_sink->set_tap(std::make_unique<UDemand>(
        "recv.U_sink", kWindow,
        std::vector<UDemand::Upstream>{{"U0", &u_channel}}));
  }
  auto* mu = i3.Add<MuNode>("MU", kWindow);
  ProvenanceSinkSpec pso;
  pso.finalize_slack = kWindow;
  pso.consumer = [&result](const ProvenanceRecord& r) {
    Record rec{r.derived_ts, {}};
    for (const TuplePtr& o : r.origins) {
      EXPECT_EQ(o->kind, TupleKind::kSource);
      rec.origin_ts.push_back(o->ts);
    }
    std::sort(rec.origin_ts.begin(), rec.origin_ts.end());
    result.records.push_back(std::move(rec));
  };
  auto* k2 = i3.Add<ProvenanceSinkNode>("K2", pso);
  i3.Connect(recv_u_sink, mu);  // port 0: derived
  i3.Connect(recv_u, mu);       // port 1: upstream
  i3.Connect(mu, k2);

  for (ByteChannel* ch : std::initializer_list<ByteChannel*>{
           &ch_data, &ch_u_sink, &u_channel}) {
    i1.RegisterAbortable(ch);
  }
  Runner runner({&i1, &i2, &i3});
  runner.Start();
  if (during) during(su_send);
  runner.Join();

  std::sort(result.records.begin(), result.records.end());
  if (const RetentionIndex* index = su_send->retention()) {
    result.retained = index->retained();
    result.requested = index->requested();
    result.evicted_unrequested = index->evicted_unrequested();
    result.peak = index->peak();
  }
  return result;
}

std::vector<Record> ExpectedRecords() {
  std::vector<Record> out;
  for (int64_t start = 0; start < kTuples; start += 2 * kWindow) {
    Record r{start, {}};
    for (int64_t ts = start; ts < start + kWindow; ++ts) {
      r.origin_ts.push_back(ts);
    }
    out.push_back(std::move(r));
  }
  return out;
}

TEST(PullProtocolTest, MatchesThePushFormAndCountsEveryDeliveringTuple) {
  TestChannel push_channel;
  const PipelineResult push = RunPipeline(/*pull=*/false, push_channel);
  TestChannel pull_channel;
  const PipelineResult pull = RunPipeline(/*pull=*/true, pull_channel);
  EXPECT_EQ(push.records, ExpectedRecords());
  EXPECT_EQ(pull.records, push.records);
  EXPECT_EQ(pull.sink_ts, push.sink_ts);

  // Every MAP tuple is retained; the tuples of the kept (even) windows are
  // requested, the odd windows' evicted without a request.
  EXPECT_EQ(pull.retained, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(pull.requested, static_cast<uint64_t>(kTuples / 2));
  EXPECT_EQ(pull.evicted_unrequested, static_cast<uint64_t>(kTuples / 2));
  EXPECT_EQ(push.retained, 0u);
}

TEST(PullProtocolTest, SlowEdgeLinkNeverFinalizesARecordEarly) {
  // Responses trail the derived stream by a slow link; the MU's watermark
  // must wait for them, so no record finalizes with missing origins.
  TestChannel slow(/*forward_delay=*/300us);
  const PipelineResult pull = RunPipeline(/*pull=*/true, slow);
  EXPECT_EQ(pull.records, ExpectedRecords());
}

TEST(PullProtocolTest, StalledRequestWatermarkHitsTheBoundThenCompletes) {
  constexpr size_t kBound = 48;
  TestChannel gated(0us, /*gated=*/true);
  size_t size_while_stalled = 0;
  const PipelineResult pull = RunPipeline(
      /*pull=*/true, gated, RetentionSpec{.capacity = kBound},
      [&](SuNode* su) {
        const auto deadline = std::chrono::steady_clock::now() + 20s;
        while (su->retention()->size() < kBound &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(1ms);
        }
        std::this_thread::sleep_for(50ms);  // blocked, not growing
        size_while_stalled = su->retention()->size();
        gated.Open();
      });
  EXPECT_EQ(size_while_stalled, kBound);
  EXPECT_EQ(pull.peak, kBound);
  EXPECT_EQ(pull.records, ExpectedRecords());
  EXPECT_EQ(pull.retained, pull.requested + pull.evicted_unrequested);
}

TEST(PullProtocolTest, PermanentlyStalledRequestWatermarkIsANamedError) {
  TestChannel gated(0us, /*gated=*/true);
  try {
    RunPipeline(/*pull=*/true, gated,
                RetentionSpec{.capacity = 16, .stall_timeout = 200ms});
    FAIL() << "a stalled frontier did not fail the run";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SU.send0"), std::string::npos) << what;
    EXPECT_NE(what.find("retention index full"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace genealog
