#include "genealog/mu.h"

#include <algorithm>

#include "common/int_math.h"

namespace genealog {
namespace {

uint64_t OriginKey(const UnfoldedTuple& u) { return u.origin_id; }
uint64_t DerivedKey(const UnfoldedTuple& u) { return u.derived_id; }

}  // namespace

void MuNode::IndexedWindow::Insert(uint64_t key, UnfoldedPtr u) {
  by_id[key].push_back(u.get());
  order.push_back(std::move(u));
}

void MuNode::IndexedWindow::PurgeBefore(int64_t horizon_ts,
                                        uint64_t (*key_of)(const UnfoldedTuple&)) {
  while (!order.empty() && order.front()->ts < horizon_ts) {
    UnfoldedTuple* victim = order.front().get();
    const uint64_t key = key_of(*victim);
    auto it = by_id.find(key);
    // Entries per id are in arrival (= ts) order, so the victim is first.
    auto& vec = it->second;
    vec.erase(std::find(vec.begin(), vec.end(), victim));
    if (vec.empty()) by_id.erase(it);
    order.pop_front();
  }
}

void MuNode::OnMergedTuple(size_t port, TuplePtr t) {
  auto u = StaticPointerCast<UnfoldedTuple>(std::move(t));
  if (port == 0) {
    // Derived stream (Def. 6.4): SOURCE-originating tuples pass through.
    if (u->origin_kind == TupleKind::kSource) {
      EmitTupleAll(u);
      return;
    }
    if (auto it = upstream_.by_id.find(u->origin_id);
        it != upstream_.by_id.end()) {
      for (UnfoldedTuple* v : it->second) {
        if (u->ts - v->ts <= ws_) EmitRewrite(*u, *v);
      }
    }
    const uint64_t key = u->origin_id;  // read before the move below
    derived_.Insert(key, std::move(u));
  } else {
    if (auto it = derived_.by_id.find(u->derived_id);
        it != derived_.by_id.end()) {
      for (UnfoldedTuple* d : it->second) {
        if (u->ts - d->ts <= ws_) EmitRewrite(*d, *u);
      }
    }
    const uint64_t key = u->derived_id;  // read before the move below
    upstream_.Insert(key, std::move(u));
  }
}

void MuNode::OnMergedWatermark(int64_t wm) {
  const int64_t horizon = SatSub(wm, ws_);
  derived_.PurgeBefore(horizon, &OriginKey);
  upstream_.PurgeBefore(horizon, &DerivedKey);
  // A later upstream tuple has ts >= wm, so it joins only derived tuples
  // with ts >= horizon, and a later derived tuple has ts >= wm: every record
  // still to come has derived_ts >= horizon (see the header).
  ForwardWatermark(wm == kWatermarkMax ? wm : horizon);
}

void MuNode::EmitRewrite(const UnfoldedTuple& derived,
                         const UnfoldedTuple& upstream) {
  auto out = MakeTuple<UnfoldedTuple>(std::max(derived.ts, upstream.ts));
  out->stimulus = std::max(derived.stimulus, upstream.stimulus);
  out->id = NextTupleId();
  out->derived = derived.derived;
  out->derived_id = derived.derived_id;
  out->derived_ts = derived.derived_ts;
  out->origin = upstream.origin;
  out->origin_id = upstream.origin_id;
  out->origin_ts = upstream.origin_ts;
  out->origin_kind = upstream.origin_kind;
  EmitTupleAll(out);
}

ComposedMu BuildComposedMu(Topology& topology, const std::string& name,
                           int64_t ws) {
  auto* upstream_union = topology.Add<UnionNode>(name + ".upstream_union");
  auto* mux = topology.Add<MultiplexNode>(name + ".multiplex");
  auto* f_remote = topology.Add<FilterNode<UnfoldedTuple>>(
      name + ".not_source",
      [](const UnfoldedTuple& u) { return u.origin_kind != TupleKind::kSource; });
  auto* f_source = topology.Add<FilterNode<UnfoldedTuple>>(
      name + ".source",
      [](const UnfoldedTuple& u) { return u.origin_kind == TupleKind::kSource; });
  auto* join = topology.Add<JoinNode<UnfoldedTuple, UnfoldedTuple, UnfoldedTuple>>(
      name + ".join", JoinOptions{ws},
      // Left = upstream unfolded stream, right = derived unfolded stream:
      // match ti.ID = t.IDO (Def. 6.4).
      [](const UnfoldedTuple& up, const UnfoldedTuple& d) {
        return up.derived_id == d.origin_id;
      },
      [](const UnfoldedTuple& up, const UnfoldedTuple& d) {
        auto out = MakeTuple<UnfoldedTuple>(0);  // ts set by the Join node
        out->derived = d.derived;
        out->derived_id = d.derived_id;
        out->derived_ts = d.derived_ts;
        out->origin = up.origin;
        out->origin_id = up.origin_id;
        out->origin_ts = up.origin_ts;
        out->origin_kind = up.origin_kind;
        return out;
      });
  auto* out_union = topology.Add<UnionNode>(name + ".out_union");

  topology.Connect(upstream_union, join);  // join port 0 (left)
  topology.Connect(mux, f_remote);
  topology.Connect(mux, f_source);
  topology.Connect(f_remote, join);  // join port 1 (right)
  topology.Connect(join, out_union);
  topology.Connect(f_source, out_union);

  return ComposedMu{mux, upstream_union, out_union};
}

}  // namespace genealog
