// Theorem 6.5's induction, exercised end-to-end over THREE processing hops:
// provenance must resolve across a chain of SPE instances where the middle
// hop's originating tuples are themselves REMOTE, requiring chained MU
// operators (the output of one MU feeds the derived port of the next).
//
//   I1: Source -> Map(x2)        -> SU_a -> Send    (creates kMap tuples)
//   I2: Receive -> Aggregate#1   -> SU_b -> Send    (REMOTE inputs)
//   I3: Receive -> Aggregate#2   -> SU_c -> Sink
//   I4: MU_x(derived = U_c, upstream = U_b)
//       MU_y(derived = MU_x out, upstream = U_a) -> provenance sink
//
// Every final record must contain only SOURCE tuples — the original readings
// — even though the sink-side traversal at I3 can only see REMOTE tuples.
#include <gtest/gtest.h>

#include <set>

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

using testing::V;
using testing::ValueTuple;

TEST(MultiHopProvenanceTest, ThreeHopChainResolvesToSources) {
  // 40 source tuples; agg1 sums pairs of doubled values over 2-tick windows;
  // agg2 sums those over 10-tick windows. Each final output's provenance is
  // the 10 source tuples of its 10-tick span.
  std::vector<IntrusivePtr<ValueTuple>> data;
  for (int i = 0; i < 40; ++i) data.push_back(V(i, i));

  InMemoryChannel ch_data1;
  InMemoryChannel ch_data2;
  InMemoryChannel ch_u_a;
  InMemoryChannel ch_u_b;
  InMemoryChannel ch_u_c;

  Topology i1(1, ProvenanceMode::kGenealog);
  Topology i2(2, ProvenanceMode::kGenealog);
  Topology i3(3, ProvenanceMode::kGenealog);
  Topology i4(4, ProvenanceMode::kGenealog);

  // --- I1: Source -> Map -> SU_a -> Send ------------------------------------
  auto* source = i1.Add<VectorSourceNode<ValueTuple>>("source", std::move(data));
  auto* map = i1.Add<MapNode<ValueTuple, ValueTuple>>(
      "double", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        out.Emit(MakeTuple<ValueTuple>(0, in.value * 2));
      });
  auto* su_a = i1.Add<SuNode>("su_a");
  auto* send_data1 = i1.Add<SendNode>("send_data1", &ch_data1);
  auto* send_u_a = i1.Add<SendNode>("send_u_a", &ch_u_a);
  i1.Connect(source, map);
  i1.Connect(map, su_a);
  i1.Connect(su_a, send_data1);
  i1.Connect(su_a, send_u_a);

  // --- I2: Receive -> Aggregate#1 -> SU_b -> Send ---------------------------
  auto* recv_data1 = i2.Add<ReceiveNode>("recv_data1", &ch_data1);
  auto* agg1 = i2.Add<AggregateNode<ValueTuple, ValueTuple>>(
      "agg1", AggregateOptions{2, 2},
      [](const ValueTuple&) { return int64_t{0}; },
      [](const WindowView<ValueTuple, int64_t>& w) {
        int64_t sum = 0;
        for (const auto& t : w.tuples) sum += t->value;
        return MakeTuple<ValueTuple>(0, sum);
      });
  auto* su_b = i2.Add<SuNode>("su_b");
  auto* send_data2 = i2.Add<SendNode>("send_data2", &ch_data2);
  auto* send_u_b = i2.Add<SendNode>("send_u_b", &ch_u_b);
  i2.Connect(recv_data1, agg1);
  i2.Connect(agg1, su_b);
  i2.Connect(su_b, send_data2);
  i2.Connect(su_b, send_u_b);

  // --- I3: Receive -> Aggregate#2 -> SU_c -> Sink ---------------------------
  auto* recv_data2 = i3.Add<ReceiveNode>("recv_data2", &ch_data2);
  auto* agg2 = i3.Add<AggregateNode<ValueTuple, ValueTuple>>(
      "agg2", AggregateOptions{10, 10},
      [](const ValueTuple&) { return int64_t{0}; },
      [](const WindowView<ValueTuple, int64_t>& w) {
        int64_t sum = 0;
        for (const auto& t : w.tuples) sum += t->value;
        return MakeTuple<ValueTuple>(0, sum);
      });
  auto* su_c = i3.Add<SuNode>("su_c");
  std::vector<TuplePtr> alerts;
  auto* sink = i3.Add<SinkNode>(
      "sink", [&alerts](const TuplePtr& t) { alerts.push_back(t); });
  auto* send_u_c = i3.Add<SendNode>("send_u_c", &ch_u_c);
  i3.Connect(recv_data2, agg2);
  i3.Connect(agg2, su_c);
  i3.Connect(su_c, sink);
  i3.Connect(su_c, send_u_c);

  // --- I4: chained MUs -> provenance sink -----------------------------------
  auto* recv_u_a = i4.Add<ReceiveNode>("recv_u_a", &ch_u_a);
  auto* recv_u_b = i4.Add<ReceiveNode>("recv_u_b", &ch_u_b);
  auto* recv_u_c = i4.Add<ReceiveNode>("recv_u_c", &ch_u_c);
  auto* mu_x = i4.Add<MuNode>("mu_x", /*ws=*/16);
  // mu_y's derived port reads mu_x's rewrites, which trail their derived ts
  // by up to agg2's window, so its ws covers both windows (10 + 2,
  // genealog/mu.h) and the watermark it forwards still bounds every record.
  auto* mu_y = i4.Add<MuNode>("mu_y", /*ws=*/16);
  std::vector<ProvenanceRecord> records;
  ProvenanceSinkSpec pso;
  pso.consumer = [&records](const ProvenanceRecord& r) {
    records.push_back(r);
  };
  auto* k2 = i4.Add<ProvenanceSinkNode>("k2", pso);
  i4.Connect(recv_u_c, mu_x);  // MU_x port 0: derived
  i4.Connect(recv_u_b, mu_x);  // MU_x port 1: upstream (SU_b)
  i4.Connect(mu_x, mu_y);      // MU_y port 0: derived = MU_x output
  i4.Connect(recv_u_a, mu_y);  // MU_y port 1: upstream (SU_a)
  i4.Connect(mu_y, k2);

  Runner runner({&i1, &i2, &i3, &i4});
  runner.Start();
  runner.Join();

  // 40 ticks / 10-tick windows = 4 alerts; sum over window [10k,10k+10) of
  // doubled values = 2 * sum(10k..10k+9).
  ASSERT_EQ(alerts.size(), 4u);
  for (size_t k = 0; k < alerts.size(); ++k) {
    int64_t expected = 0;
    for (int64_t i = 0; i < 10; ++i) {
      expected += 2 * (static_cast<int64_t>(k) * 10 + i);
    }
    EXPECT_EQ(static_cast<ValueTuple&>(*alerts[k]).value, expected);
  }

  // Each record resolves to exactly the 10 ORIGINAL source tuples.
  ASSERT_EQ(records.size(), 4u);
  for (const ProvenanceRecord& record : records) {
    ASSERT_EQ(record.origins.size(), 10u) << "alert@" << record.derived_ts;
    std::set<int64_t> ts_seen;
    for (const TuplePtr& origin : record.origins) {
      EXPECT_EQ(origin->kind, TupleKind::kSource);
      // Source payloads are the *undoubled* values: value == ts.
      EXPECT_EQ(static_cast<ValueTuple&>(*origin).value, origin->ts);
      ts_seen.insert(origin->ts);
      EXPECT_GE(origin->ts, record.derived_ts);
      EXPECT_LT(origin->ts, record.derived_ts + 10);
    }
    EXPECT_EQ(ts_seen.size(), 10u);
  }
}

}  // namespace
}  // namespace genealog
