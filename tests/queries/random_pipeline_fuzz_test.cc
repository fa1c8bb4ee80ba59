// Provenance fuzz test: GeneaLog (pointer graphs + traversal) and the
// Ariadne-style baseline (annotation sets + store join) are two entirely
// independent provenance mechanisms. For RANDOMLY generated operator
// pipelines — filters, maps, sliding/tumbling grouped aggregates, and
// multiplex/join diamonds, in random order — both must produce identical
// provenance records. Any disagreement exposes a bug in one of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "baseline/resolver.h"
#include "common/rng.h"
#include "genealog/provenance_sink.h"
#include "genealog/su.h"
#include "spe/aggregate.h"
#include "spe/dataflow.h"
#include "spe/join.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::KeyedTuple;

struct StagePlan {
  enum Kind { kFilter, kMap, kAggregate, kDiamond } kind;
  int64_t a = 0;  // modulus / shift / ws
  int64_t b = 0;  // wa / join ws
  bool group_by_key = false;
};

struct PipelinePlan {
  std::vector<StagePlan> stages;
  int64_t total_window_span = 1;
};

PipelinePlan MakePlan(uint64_t seed) {
  SplitMix64 rng(seed);
  PipelinePlan plan;
  const int n_stages = static_cast<int>(rng.UniformInt(2, 4));
  int windowed_stages = 0;
  for (int i = 0; i < n_stages; ++i) {
    StagePlan stage;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        stage.kind = StagePlan::kFilter;
        stage.a = rng.UniformInt(2, 4);  // drop 1-in-a
        break;
      case 1:
        stage.kind = StagePlan::kMap;
        stage.a = rng.UniformInt(1, 50);
        break;
      case 2: {
        stage.kind = StagePlan::kAggregate;
        stage.a = rng.UniformInt(2, 5) * 2;                    // ws
        stage.b = rng.Bernoulli(0.5) ? stage.a : stage.a / 2;  // wa
        stage.group_by_key = rng.Bernoulli(0.5);
        plan.total_window_span += stage.a;
        ++windowed_stages;
        break;
      }
      default:
        stage.kind = StagePlan::kDiamond;
        stage.a = rng.UniformInt(0, 4);  // join ws
        plan.total_window_span += stage.a;
        ++windowed_stages;
        break;
    }
    // Keep graphs from exploding: at most two windowed stages.
    if (windowed_stages > 2) {
      stage.kind = StagePlan::kFilter;
      stage.a = 3;
    }
    plan.stages.push_back(stage);
  }
  return plan;
}

// Builds the planned stages; returns the exit node.
Node* BuildStages(Topology& topo, Node* input, const PipelinePlan& plan) {
  Node* head = input;
  int idx = 0;
  for (const StagePlan& stage : plan.stages) {
    const std::string name = "stage" + std::to_string(idx++);
    switch (stage.kind) {
      case StagePlan::kFilter: {
        auto* f = topo.Add<FilterNode<KeyedTuple>>(
            name, [m = stage.a](const KeyedTuple& t) {
              return (t.key + t.ts) % m != 0;
            });
        topo.Connect(head, f);
        head = f;
        break;
      }
      case StagePlan::kMap: {
        auto* map = topo.Add<MapNode<KeyedTuple, KeyedTuple>>(
            name, [c = stage.a](const KeyedTuple& in,
                                MapCollector<KeyedTuple>& out) {
              out.Emit(MakeTuple<KeyedTuple>(0, in.key,
                                             in.value + static_cast<double>(c)));
            });
        topo.Connect(head, map);
        head = map;
        break;
      }
      case StagePlan::kAggregate: {
        auto* agg = topo.Add<AggregateNode<KeyedTuple, KeyedTuple>>(
            name, AggregateOptions{stage.a, stage.b},
            [group = stage.group_by_key](const KeyedTuple& t) {
              return group ? t.key : int64_t{0};
            },
            [](const WindowView<KeyedTuple, int64_t>& w) {
              double sum = 0;
              for (const auto& t : w.tuples) sum += t->value;
              return MakeTuple<KeyedTuple>(0, w.key, sum);
            });
        topo.Connect(head, agg);
        head = agg;
        break;
      }
      case StagePlan::kDiamond: {
        auto* mux = topo.Add<MultiplexNode>(name + ".mux");
        auto* left = topo.Add<FilterNode<KeyedTuple>>(
            name + ".l", [](const KeyedTuple& t) { return t.ts % 2 == 0; });
        auto* right = topo.Add<FilterNode<KeyedTuple>>(
            name + ".r", [](const KeyedTuple& t) { return t.ts % 3 == 0; });
        auto* join = topo.Add<JoinNode<KeyedTuple, KeyedTuple, KeyedTuple>>(
            name + ".join", JoinOptions{stage.a},
            [](const KeyedTuple& l, const KeyedTuple& r) {
              return l.key == r.key;
            },
            [](const KeyedTuple& l, const KeyedTuple& r) {
              return MakeTuple<KeyedTuple>(0, l.key, l.value + 1000 * r.value);
            });
        topo.Connect(head, mux);
        topo.Connect(mux, left);
        topo.Connect(mux, right);
        topo.Connect(left, join);
        topo.Connect(right, join);
        head = join;
        break;
      }
    }
  }
  return head;
}

struct CanonicalRecord {
  int64_t derived_ts;
  std::string derived;
  std::vector<std::string> origins;
  bool operator==(const CanonicalRecord&) const = default;
  auto operator<=>(const CanonicalRecord&) const = default;
};

CanonicalRecord Canonicalize(const ProvenanceRecord& r) {
  CanonicalRecord out;
  out.derived_ts = r.derived_ts;
  out.derived = r.derived->DebugPayload();
  for (const TuplePtr& o : r.origins) {
    out.origins.push_back(std::to_string(o->ts) + "/" + o->DebugPayload());
  }
  std::sort(out.origins.begin(), out.origins.end());
  return out;
}

std::vector<IntrusivePtr<KeyedTuple>> MakeInput(uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<IntrusivePtr<KeyedTuple>> data;
  int64_t ts = 0;
  for (int i = 0; i < 250; ++i) {
    ts += rng.UniformInt(0, 2);
    data.push_back(MakeTuple<KeyedTuple>(
        ts, rng.UniformInt(0, 3), static_cast<double>(rng.UniformInt(1, 9))));
  }
  return data;
}

std::vector<CanonicalRecord> RunPlan(const PipelinePlan& plan, uint64_t seed,
                                     ProvenanceMode mode, size_t batch_size = 1,
                                     std::optional<SchedulerMode> scheduler = {},
                                     size_t workers = 0) {
  // Scheduler left unset keeps the environment default, so the CI scheduler
  // sweeps (GENEALOG_SCHEDULER=pool) cover every test in this file.
  EngineOptions engine{.batch_size = batch_size};
  if (scheduler.has_value()) engine.scheduler = *scheduler;
  if (workers > 0) engine.workers = workers;
  Topology topo(1, mode, engine);
  auto* source =
      topo.Add<VectorSourceNode<KeyedTuple>>("source", MakeInput(seed));
  std::vector<CanonicalRecord> records;
  auto on_record = [&records](const ProvenanceRecord& r) {
    records.push_back(Canonicalize(r));
  };

  if (mode == ProvenanceMode::kGenealog) {
    Node* exit = BuildStages(topo, source, plan);
    auto* su = topo.Add<SuNode>("su");
    auto* sink = topo.Add<SinkNode>("sink");
    ProvenanceSinkSpec pso;
    pso.consumer = on_record;
    auto* prov = topo.Add<ProvenanceSinkNode>("k2", pso);
    topo.Connect(exit, su);
    topo.Connect(su, sink);
    topo.Connect(su, prov);
  } else {
    auto* tap = topo.Add<MultiplexNode>("tap");
    topo.Connect(source, tap);
    Node* exit = BuildStages(topo, tap, plan);
    auto* sink_tap = topo.Add<MultiplexNode>("sink_tap");
    auto* sink = topo.Add<SinkNode>("sink");
    BaselineResolverOptions bro;
    bro.slack = plan.total_window_span;
    bro.consumer = on_record;
    auto* resolver = topo.Add<BaselineResolverNode>("resolver", bro);
    topo.Connect(exit, sink_tap);
    topo.Connect(sink_tap, sink);
    topo.Connect(sink_tap, resolver);  // port 0
    topo.Connect(tap, resolver);       // port 1
  }
  RunToCompletion(topo);
  std::sort(records.begin(), records.end());
  return records;
}

class RandomPipelineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPipelineFuzzTest, GenealogAndBaselineAgree) {
  const uint64_t seed = GetParam();
  const PipelinePlan plan = MakePlan(seed);
  auto gl = RunPlan(plan, seed, ProvenanceMode::kGenealog);
  auto bl = RunPlan(plan, seed, ProvenanceMode::kBaseline);
  EXPECT_EQ(gl, bl) << "seed " << seed;
  // Most plans should produce at least some provenance; all-empty results
  // would make the equivalence vacuous, so track it.
  if (gl.empty()) {
    GTEST_LOG_(INFO) << "seed " << seed << " produced no records";
  }
}

TEST_P(RandomPipelineFuzzTest, GenealogIsRunDeterministic) {
  const uint64_t seed = GetParam();
  const PipelinePlan plan = MakePlan(seed);
  auto first = RunPlan(plan, seed, ProvenanceMode::kGenealog);
  EXPECT_EQ(RunPlan(plan, seed, ProvenanceMode::kGenealog), first);
}

// The batch size must be invisible in the provenance records of every
// randomly generated pipeline. The reference runs batch 1, where every
// tuple is handed over on its own.
TEST_P(RandomPipelineFuzzTest, GenealogIsDataPlaneInvariant) {
  const uint64_t seed = GetParam();
  const PipelinePlan plan = MakePlan(seed);
  const auto reference =
      RunPlan(plan, seed, ProvenanceMode::kGenealog, /*batch_size=*/1);
  for (size_t batch : {4, 16, 64, 1024}) {
    EXPECT_EQ(RunPlan(plan, seed, ProvenanceMode::kGenealog, batch), reference)
        << "seed " << seed << " batch " << batch;
  }
}

// Scheduler invariance: the worker pool — at any worker count and batch
// size — must reproduce the thread-per-node batch-1 provenance byte for byte
// on every randomly generated pipeline. workers=1 is the fully serialized
// round-robin case; the larger counts migrate tasks between workers
// mid-stream.
TEST_P(RandomPipelineFuzzTest, GenealogIsSchedulerInvariant) {
  const uint64_t seed = GetParam();
  const PipelinePlan plan = MakePlan(seed);
  const auto reference =
      RunPlan(plan, seed, ProvenanceMode::kGenealog, /*batch_size=*/1,
              SchedulerMode::kThreadPerNode);
  struct Config {
    size_t workers;
    size_t batch;
  };
  constexpr Config kConfigs[] = {
      {1, 1},   // serialized pool, one tuple per handover
      {2, 16},  // two workers, batched
      {4, 64},  // production default shape on the pool
  };
  for (const Config& config : kConfigs) {
    EXPECT_EQ(RunPlan(plan, seed, ProvenanceMode::kGenealog, config.batch,
                      SchedulerMode::kPool, config.workers),
              reference)
        << "seed " << seed << " workers " << config.workers << " batch "
        << config.batch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineFuzzTest,
                         ::testing::Range<uint64_t>(1, 21));

// --- fluent parallel stages -------------------------------------------------
// Random stateless prefix -> .KeyBy(key).Parallel(n).Aggregate -> random
// stateless suffix, built through the fluent API so the whole lowered stage
// (KeyPartitionNode, replicas, KeyedMergeNode, woven SUs) is under test. An
// empty suffix (about a third of seeds) puts the merge directly before the
// sink and exercises the per-replica SU placement; a non-empty one exercises
// the single-SU fallback.

struct ParallelFuzzPlan {
  std::vector<StagePlan> prefix;  // kFilter / kMap only
  std::vector<StagePlan> suffix;
  int64_t ws = 0;
  int64_t wa = 0;
};

ParallelFuzzPlan MakeParallelFuzzPlan(uint64_t seed) {
  SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  ParallelFuzzPlan plan;
  auto stateless = [&rng](std::vector<StagePlan>& stages, int max_n) {
    const int n = static_cast<int>(rng.UniformInt(0, max_n));
    for (int i = 0; i < n; ++i) {
      StagePlan stage;
      if (rng.Bernoulli(0.5)) {
        stage.kind = StagePlan::kFilter;
        stage.a = rng.UniformInt(2, 4);
      } else {
        stage.kind = StagePlan::kMap;
        stage.a = rng.UniformInt(1, 50);
      }
      stages.push_back(stage);
    }
  };
  stateless(plan.prefix, 2);
  stateless(plan.suffix, 2);
  plan.ws = rng.UniformInt(2, 5) * 2;
  plan.wa = rng.Bernoulli(0.5) ? plan.ws : plan.ws / 2;
  return plan;
}

struct ParallelFuzzResult {
  std::vector<std::string> sink;             // emission order
  std::vector<CanonicalRecord> records;      // sorted canonically
  bool operator==(const ParallelFuzzResult&) const = default;
};

// Where a distributed build cuts the plan: everything from the cut on runs
// on instance 2 (`.At(2)`), so the edge crossing it lowers to Send/Receive.
// Before the aggregate, the crossing tuples carry one-hop graphs; right
// after it (Q4's shape), every crossing tuple carries a window graph.
enum class Cut { kNone, kBeforeAggregate, kAfterAggregate };

const char* CutName(Cut cut) {
  switch (cut) {
    case Cut::kNone:
      return "none";
    case Cut::kBeforeAggregate:
      return "before-aggregate";
    case Cut::kAfterAggregate:
      return "after-aggregate";
  }
  return "?";
}

// shards == 0 builds the single-instance reference (a plain Aggregate node);
// shards >= 1 routes the same aggregation through KeyBy/Parallel. `mode`
// picks the provenance mechanism (GL or BL).
ParallelFuzzResult RunFluentParallel(
    const ParallelFuzzPlan& plan, uint64_t seed, int shards,
    size_t batch_size, SchedulerMode scheduler, size_t workers,
    Cut cut = Cut::kNone, ProvenanceMode mode = ProvenanceMode::kGenealog) {
  ParallelFuzzResult out;
  DataflowOptions opts;
  opts.mode = mode;
  opts.batch_size = batch_size;
  opts.scheduler = scheduler;
  if (workers > 0) opts.workers = workers;
  opts.provenance_consumer = [&out](const ProvenanceRecord& r) {
    out.records.push_back(Canonicalize(r));
  };
  Dataflow df(std::move(opts));
  Stream<KeyedTuple> head = df.Source<KeyedTuple>("source", MakeInput(seed));
  int idx = 0;
  auto apply = [&head, &idx](const std::vector<StagePlan>& stages) {
    for (const StagePlan& stage : stages) {
      const std::string name = "stage" + std::to_string(idx++);
      if (stage.kind == StagePlan::kFilter) {
        head = head.Filter(name, [m = stage.a](const KeyedTuple& t) {
          return (t.key + t.ts) % m != 0;
        });
      } else {
        head = head.Map<KeyedTuple>(
            name,
            [c = stage.a](const KeyedTuple& in, MapCollector<KeyedTuple>& emit) {
              const double value = in.value + static_cast<double>(c);
              emit.Emit(MakeTuple<KeyedTuple>(0, in.key, value));
            });
      }
    }
  };
  apply(plan.prefix);
  if (cut == Cut::kBeforeAggregate) head = head.At(2);
  const auto key_fn = [](const KeyedTuple& t) { return t.key; };
  const auto combiner = [](const WindowView<KeyedTuple, int64_t>& w) {
    double sum = 0;
    for (const auto& t : w.tuples) sum += t->value;
    return MakeTuple<KeyedTuple>(0, w.key, sum);
  };
  const AggregateOptions agg_options{plan.ws, plan.wa};
  if (shards == 0) {
    head = head.Aggregate<KeyedTuple>("agg", agg_options, key_fn, combiner);
  } else {
    head = head.KeyBy(key_fn).Parallel(shards).Aggregate<KeyedTuple>(
        "agg", agg_options, combiner);
  }
  if (cut == Cut::kAfterAggregate) head = head.At(2);
  apply(plan.suffix);
  head.Sink("sink", [&out](const TuplePtr& t) {
    out.sink.push_back(std::to_string(t->ts) + "|" + t->DebugPayload());
  });
  BuiltDataflow flow = df.Build();
  flow.Run();
  std::sort(out.records.begin(), out.records.end());
  return out;
}

// Every shard count, scheduler and batch size must reproduce the
// single-instance plan exactly: emission-order-identical sink stream,
// identical canonical provenance records.
TEST_P(RandomPipelineFuzzTest, FluentPartitionedStageMatchesSingleInstance) {
  const uint64_t seed = GetParam();
  const ParallelFuzzPlan plan = MakeParallelFuzzPlan(seed);
  const ParallelFuzzResult reference = RunFluentParallel(
      plan, seed, /*shards=*/0, /*batch_size=*/1,
      SchedulerMode::kThreadPerNode, /*workers=*/0);
  if (reference.sink.empty()) {
    GTEST_LOG_(INFO) << "seed " << seed << " produced no sink tuples";
  }
  for (const int shards : {1, 2, 4}) {
    for (const SchedulerMode scheduler :
         {SchedulerMode::kThreadPerNode, SchedulerMode::kPool}) {
      for (const size_t batch : {size_t{1}, size_t{64}}) {
        const ParallelFuzzResult got =
            RunFluentParallel(plan, seed, shards, batch, scheduler,
                              scheduler == SchedulerMode::kPool ? 3 : 0);
        EXPECT_EQ(got, reference)
            << "seed " << seed << " shards " << shards << " pool "
            << (scheduler == SchedulerMode::kPool) << " batch " << batch;
      }
    }
  }
}

// A deployment cut must be invisible in the provenance of every random
// pipeline, wherever it falls: the distributed build (instance 1 up to the
// cut, instance 2 after it, a provenance instance pulling the U streams)
// must reproduce the single-instance GL run — sink stream and canonical
// provenance — and the BL run's canonical provenance, at both batch sizes,
// under both schedulers, with and without the key-partitioned parallel
// stage.
TEST_P(RandomPipelineFuzzTest, FluentDistributedMatchesAtEveryCutPosition) {
  const uint64_t seed = GetParam();
  const ParallelFuzzPlan plan = MakeParallelFuzzPlan(seed);
  const ParallelFuzzResult reference = RunFluentParallel(
      plan, seed, /*shards=*/0, /*batch_size=*/1,
      SchedulerMode::kThreadPerNode, /*workers=*/0);
  const ParallelFuzzResult baseline = RunFluentParallel(
      plan, seed, /*shards=*/0, /*batch_size=*/1,
      SchedulerMode::kThreadPerNode, /*workers=*/0, Cut::kNone,
      ProvenanceMode::kBaseline);
  EXPECT_EQ(baseline.records, reference.records) << "seed " << seed;
  if (reference.records.empty()) {
    GTEST_LOG_(INFO) << "seed " << seed << " produced no provenance";
  }
  for (const Cut cut : {Cut::kBeforeAggregate, Cut::kAfterAggregate}) {
    for (const SchedulerMode scheduler :
         {SchedulerMode::kThreadPerNode, SchedulerMode::kPool}) {
      for (const size_t batch : {size_t{1}, size_t{64}}) {
        for (const int shards : {0, 2}) {
          const ParallelFuzzResult got = RunFluentParallel(
              plan, seed, shards, batch, scheduler,
              scheduler == SchedulerMode::kPool ? 3 : 0, cut);
          EXPECT_EQ(got, reference)
              << "seed " << seed << " cut " << CutName(cut) << " pool "
              << (scheduler == SchedulerMode::kPool) << " batch " << batch
              << " shards " << shards;
          EXPECT_EQ(got.records, baseline.records)
              << "seed " << seed << " cut " << CutName(cut) << " pool "
              << (scheduler == SchedulerMode::kPool) << " batch " << batch
              << " shards " << shards << " (vs BL)";
        }
      }
    }
  }
}

}  // namespace
}  // namespace genealog
