// MU operator semantics (Definition 6.4) — fused and composed (Figure 8).
// Dataflow lowering always uses the fused MuNode; the composed construction
// is the reference it is checked against here.
#include "genealog/mu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::Collector;
using testing::V;
using testing::ValueTuple;

// Builds an unfolded tuple (derived value/id + origin value/id/kind).
IntrusivePtr<UnfoldedTuple> U(int64_t ts, int64_t derived_value,
                              uint64_t derived_id, int64_t origin_value,
                              uint64_t origin_id, TupleKind origin_kind,
                              int64_t origin_ts = 0) {
  auto u = MakeTuple<UnfoldedTuple>(ts);
  u->derived = V(ts, derived_value);
  u->derived_id = derived_id;
  u->derived_ts = ts;
  u->origin = V(origin_ts, origin_value);
  u->origin->kind = origin_kind;
  u->origin->id = origin_id;
  u->origin_id = origin_id;
  u->origin_ts = origin_ts;
  u->origin_kind = origin_kind;
  return u;
}

struct MuOut {
  int64_t derived_value;
  uint64_t derived_id;
  int64_t origin_value;
  uint64_t origin_id;
  TupleKind origin_kind;
  bool operator==(const MuOut&) const = default;
  auto operator<=>(const MuOut&) const = default;
};

std::vector<MuOut> Canonical(const Collector& c) {
  std::vector<MuOut> out;
  for (const auto& t : c.tuples()) {
    const auto& u = static_cast<const UnfoldedTuple&>(*t);
    out.push_back(MuOut{static_cast<const ValueTuple&>(*u.derived).value,
                        u.derived_id,
                        static_cast<const ValueTuple&>(*u.origin).value,
                        u.origin_id, u.origin_kind});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<MuOut> RunMu(
    std::vector<IntrusivePtr<UnfoldedTuple>> derived,
    std::vector<std::vector<IntrusivePtr<UnfoldedTuple>>> upstreams,
    int64_t ws, bool composed) {
  Topology topo;
  auto* derived_src = topo.Add<VectorSourceNode<UnfoldedTuple>>(
      "derived", std::move(derived));
  std::vector<Node*> upstream_srcs;
  for (size_t i = 0; i < upstreams.size(); ++i) {
    upstream_srcs.push_back(topo.Add<VectorSourceNode<UnfoldedTuple>>(
        "up" + std::to_string(i), std::move(upstreams[i])));
  }
  Collector collector;
  auto* sink = collector.AttachSink(topo);

  if (composed) {
    ComposedMu mu = BuildComposedMu(topo, "mu", ws);
    topo.Connect(mu.output, sink);
    topo.Connect(derived_src, mu.derived_entry);
    for (Node* up : upstream_srcs) topo.Connect(up, mu.upstream_entry);
  } else {
    auto* mu = topo.Add<MuNode>("mu", ws);
    topo.Connect(mu, sink);
    topo.Connect(derived_src, mu);  // port 0 = derived
    for (Node* up : upstream_srcs) topo.Connect(up, mu);
  }
  RunToCompletion(topo);
  return Canonical(collector);
}

// A source-originating derived tuple passes through unchanged.
TEST(MuTest, SourceOriginPassesThrough) {
  for (bool composed : {false, true}) {
    auto out = RunMu({U(10, 100, 1, 7, 50, TupleKind::kSource)}, {{}}, 100,
                     composed);
    ASSERT_EQ(out.size(), 1u) << (composed ? "composed" : "fused");
    EXPECT_EQ(out[0],
              (MuOut{100, 1, 7, 50, TupleKind::kSource}));
  }
}

// A REMOTE-originating derived tuple is replaced by the matching upstream
// tuples' originating parts, keeping the derived (sink) attributes.
TEST(MuTest, RemoteOriginRewrittenFromUpstream) {
  for (bool composed : {false, true}) {
    auto out = RunMu(
        {U(10, 100, /*derived_id=*/1, /*origin_value=*/0, /*origin_id=*/77,
           TupleKind::kRemote)},
        {{
            // Upstream: delivering tuple 77 had two originating sources.
            U(5, 0, /*derived_id=*/77, 11, 501, TupleKind::kSource),
            U(5, 0, /*derived_id=*/77, 12, 502, TupleKind::kSource),
        }},
        100, composed);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (MuOut{100, 1, 11, 501, TupleKind::kSource}));
    EXPECT_EQ(out[1], (MuOut{100, 1, 12, 502, TupleKind::kSource}));
  }
}

TEST(MuTest, NonMatchingUpstreamIgnored) {
  for (bool composed : {false, true}) {
    auto out = RunMu(
        {U(10, 100, 1, 0, 77, TupleKind::kRemote)},
        {{U(5, 0, 88, 11, 501, TupleKind::kSource)}},  // id 88 != 77
        100, composed);
    EXPECT_TRUE(out.empty());
  }
}

TEST(MuTest, MatchWorksInBothArrivalOrders) {
  for (bool composed : {false, true}) {
    // Upstream tuple is *later* than the derived tuple (the usual case with
    // emit-at-window-start aggregates upstream).
    auto out = RunMu({U(10, 100, 1, 0, 77, TupleKind::kRemote)},
                     {{U(40, 0, 77, 11, 501, TupleKind::kSource)}}, 100,
                     composed);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].origin_value, 11);
  }
}

TEST(MuTest, WindowBoundsMatching) {
  for (bool composed : {false, true}) {
    // |40 - 10| = 30 <= ws=30 matches; |45 - 10| = 35 does not.
    auto out = RunMu({U(10, 100, 1, 0, 77, TupleKind::kRemote),
                      U(10, 200, 2, 0, 78, TupleKind::kRemote)},
                     {{U(40, 0, 77, 11, 501, TupleKind::kSource),
                       U(45, 0, 78, 12, 502, TupleKind::kSource)}},
                     30, composed);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].derived_value, 100);
  }
}

TEST(MuTest, MultipleUpstreamStreams) {
  // Q4's shape: two SUs at instance 1 feed two upstream ports.
  for (bool composed : {false, true}) {
    auto out = RunMu(
        {U(10, 100, 1, 0, 70, TupleKind::kRemote),
         U(12, 100, 1, 0, 80, TupleKind::kRemote)},
        {{U(8, 0, 70, 11, 501, TupleKind::kSource)},
         {U(9, 0, 80, 12, 601, TupleKind::kSource)}},
        100, composed);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].origin_id, 501u);
    EXPECT_EQ(out[1].origin_id, 601u);
  }
}

TEST(MuTest, MixedSourceAndRemoteDerived) {
  for (bool composed : {false, true}) {
    auto out = RunMu(
        {U(10, 100, 1, 7, 50, TupleKind::kSource),
         U(11, 100, 1, 0, 77, TupleKind::kRemote)},
        {{U(12, 0, 77, 11, 501, TupleKind::kSource)}}, 100, composed);
    ASSERT_EQ(out.size(), 2u);
    // One passthrough + one rewrite, both carrying the sink's attributes.
    EXPECT_EQ(out[0].origin_id, 50u);
    EXPECT_EQ(out[1].origin_id, 501u);
  }
}

// A multi-hop scenario: the upstream's origin is itself REMOTE (three
// instances chained); MU must preserve the REMOTE kind for the next MU.
TEST(MuTest, PreservesRemoteKindAcrossRewrite) {
  for (bool composed : {false, true}) {
    auto out = RunMu({U(10, 100, 1, 0, 77, TupleKind::kRemote)},
                     {{U(9, 0, 77, 21, 701, TupleKind::kRemote)}}, 100,
                     composed);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].origin_kind, TupleKind::kRemote);
    EXPECT_EQ(out[0].origin_id, 701u);
  }
}

TEST(MuTest, OneUpstreamTupleServesManyDerived) {
  for (bool composed : {false, true}) {
    auto out = RunMu({U(10, 100, 1, 0, 77, TupleKind::kRemote),
                      U(20, 200, 2, 0, 77, TupleKind::kRemote)},
                     {{U(15, 0, 77, 11, 501, TupleKind::kSource)}}, 100,
                     composed);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].derived_value, 100);
    EXPECT_EQ(out[1].derived_value, 200);
    EXPECT_EQ(out[0].origin_id, 501u);
    EXPECT_EQ(out[1].origin_id, 501u);
  }
}

// Records what reaches it, chained into its producer so that every
// forwarded watermark is seen on its own: the watermarks in order, the
// tuples that arrived with a derived ts below an earlier watermark, and the
// flush.
class StreamProbe final : public SingleInputNode {
 public:
  using SingleInputNode::SingleInputNode;
  bool Chainable() const override { return true; }

  std::vector<int64_t> watermarks;
  size_t tuples = 0;
  size_t below_watermark = 0;
  bool flushed = false;

 protected:
  void OnTuple(TuplePtr t) override {
    ++tuples;
    const auto& u = static_cast<const UnfoldedTuple&>(*t);
    if (!watermarks.empty() && u.derived_ts < watermarks.back()) {
      ++below_watermark;
    }
  }
  void OnWatermark(int64_t wm) override { watermarks.push_back(wm); }
  void OnFlush() override { flushed = true; }
};

// The MU forwards its merged watermark less ws: an upstream tuple that
// trails its derived tuple by up to ws still joins it, and the rewrite's
// derived ts is never below a watermark already forwarded. The flush still
// ends the stream.
TEST(MuTest, ForwardsTheMergedWatermarkLessTheWindow) {
  constexpr int64_t kWs = 3;
  std::vector<IntrusivePtr<UnfoldedTuple>> derived;
  std::vector<IntrusivePtr<UnfoldedTuple>> upstream;
  for (int64_t t = 0; t < 10; ++t) {
    const auto id = static_cast<uint64_t>(t);
    derived.push_back(U(t, t, 100 + id, 0, 500 + id, TupleKind::kRemote));
    upstream.push_back(
        U(t + 2, 0, 500 + id, t, 700 + id, TupleKind::kSource, t));
  }
  derived.push_back(U(11, 11, 111, 0, 611, TupleKind::kSource));
  Topology topo(1, ProvenanceMode::kNone, EngineOptions{.batch_size = 1});
  auto* derived_src = topo.Add<VectorSourceNode<UnfoldedTuple>>(
      "derived", std::move(derived));
  auto* upstream_src = topo.Add<VectorSourceNode<UnfoldedTuple>>(
      "up", std::move(upstream));
  auto* mu = topo.Add<MuNode>("mu", kWs);
  auto* probe = topo.Add<StreamProbe>("probe");
  topo.Connect(derived_src, mu);   // port 0
  topo.Connect(upstream_src, mu);  // port 1
  topo.Chain(mu, probe);
  RunToCompletion(topo);

  // Both streams end at ts 11. The merged watermark runs from 0 (the first
  // derived tuple) to at least 9, the ts of the derived stream's last tuple
  // before its end: the last port to flush can carry its final advance in
  // its flush batch, which ends the merge instead.
  ASSERT_FALSE(probe->watermarks.empty());
  EXPECT_GE(probe->watermarks.back(), 9 - kWs);
  for (int64_t wm : probe->watermarks) {
    EXPECT_GE(wm, 0 - kWs);
    EXPECT_LE(wm, 11 - kWs);
  }
  EXPECT_EQ(probe->tuples, 11u);  // 10 rewrites and the pass-through
  EXPECT_EQ(probe->below_watermark, 0u);
  EXPECT_TRUE(probe->flushed);
}

// Two randomized upstream ports, as in Q4's distributed deployment (a daily
// sum and a midnight reading cross on separate channels): the Union in front
// of the composed MU's join must see both ports' tuples.
TEST(MuTest, ComposedEqualsFusedOnRandomizedWorkload) {
  SplitMix64 rng(21);
  std::vector<IntrusivePtr<UnfoldedTuple>> derived;
  std::vector<std::vector<IntrusivePtr<UnfoldedTuple>>> ups(2);
  int64_t dts = 0;
  int64_t uts[2] = {0, 0};
  for (int i = 0; i < 150; ++i) {
    dts += rng.UniformInt(0, 3);
    const uint64_t shared_id = static_cast<uint64_t>(rng.UniformInt(1, 40));
    const bool is_source = rng.Bernoulli(0.3);
    derived.push_back(U(dts, 100 + i, static_cast<uint64_t>(i), i, shared_id,
                        is_source ? TupleKind::kSource : TupleKind::kRemote));
    for (int p = 0; p < 2; ++p) {
      uts[p] += rng.UniformInt(0, 3);
      ups[p].push_back(U(uts[p], 0,
                         static_cast<uint64_t>(rng.UniformInt(1, 40)),
                         1000 * (p + 1) + i,
                         static_cast<uint64_t>(2000 + 1000 * p + i),
                         TupleKind::kSource));
    }
  }
  auto Clone = [](const std::vector<IntrusivePtr<UnfoldedTuple>>& v) {
    std::vector<IntrusivePtr<UnfoldedTuple>> out;
    for (const auto& t : v) {
      out.push_back(StaticPointerCast<UnfoldedTuple>(t->CloneTuple()));
      out.back()->id = t->id;
    }
    return out;
  };
  auto fused = RunMu(Clone(derived), {Clone(ups[0]), Clone(ups[1])}, 20,
                     /*composed=*/false);
  auto composed = RunMu(Clone(derived), {Clone(ups[0]), Clone(ups[1])}, 20,
                        /*composed=*/true);
  EXPECT_EQ(fused, composed);
  // Both upstream ports matched at least one derived tuple.
  for (const uint64_t base : {2000u, 3000u}) {
    EXPECT_TRUE(std::any_of(fused.begin(), fused.end(), [&](const MuOut& o) {
      return o.origin_id >= base && o.origin_id < base + 1000;
    })) << "no match from the upstream port with origin ids " << base;
  }
}

}  // namespace
}  // namespace genealog
