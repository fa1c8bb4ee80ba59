// Typed fluent dataflow builder — the high-level front end of the engine.
//
// GeneaLog's pitch is that provenance capture is a cross-cutting concern the
// framework weaves into a query, not something the query author hand-wires
// (PAPER §4–5). This header delivers that: a query is written as a typed
// operator chain,
//
//   DataflowOptions opts;
//   opts.mode = ProvenanceMode::kGenealog;
//   Dataflow df(opts);
//   df.Source<Reading>("readings", std::move(data))
//       .Filter("nonzero", [](const Reading& r) { return r.v != 0; })
//       .Aggregate<Avg>("avg", {60, 30}, key_fn, combiner)
//       .Sink("alerts", print);
//   BuiltDataflow flow = df.Build();
//   flow.Run();
//
// Each combinator records one logical operator in a plan; Build() lowers the
// plan onto the existing Topology/Node layer and automatically
//   * inserts the provenance machinery the selected ProvenanceMode requires
//     (GL: SU before the sink, and, across instance boundaries, one SU per
//     delivering stream plus the MU + provenance sink on a dedicated
//     provenance instance; BL: source/sink taps feeding the baseline
//     resolver; NP: nothing),
//   * assigns every input port and output index (Join left/right, MU
//     derived/upstream, Multiplex taps) in deterministic plan order,
//   * places Send/Receive pairs over serializing channels on every edge that
//     crosses a deployment instance (see Stream::At), and
//   * hands the EngineOptions slice of its options (batch size, scheduler,
//     workers, ...) to every topology it creates.
// The weaving rules live in genealog/instrument.{h,cc}; ARCHITECTURE.md
// ("The dataflow builder") documents the lowering in detail.
//
// Streams are single-consumer: use Multiplex to fan out. Deployment is
// expressed per operator — every operator runs on the instance of the stream
// handle it was called on, and At(n) rebinds the handle, so
// `source.Filter(...).At(2).Aggregate(...)` splits the query between
// instances 1 and 2 exactly like the paper's Figure 7.
#ifndef GENEALOG_SPE_DATAFLOW_H_
#define GENEALOG_SPE_DATAFLOW_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/engine_options.h"
#include "core/instrumentation.h"
#include "genealog/lineage_query.h"
#include "genealog/lineage_service.h"
#include "genealog/provenance_record.h"
#include "net/channel.h"
#include "net/send_receive.h"
#include "spe/aggregate.h"
#include "spe/join.h"
#include "spe/parallel.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"

namespace genealog {

class Dataflow;
class SuNode;
class UServeNode;
class UDemand;
class ProvenanceSinkNode;
class BaselineResolverNode;
template <typename T, typename KeyFn>
class KeyedStream;

// The engine settings (the EngineOptions base, handed to every lowered
// topology and consulted by the weaving: use_tcp for inter-instance
// channels, the lineage_* fields for the store) plus what the weaving itself
// needs.
// Untouched engine fields follow the process-wide env defaults.
struct DataflowOptions : EngineOptions {
  // Instrumentation woven into the lowered query: NP / GL / BL.
  ProvenanceMode mode = ProvenanceMode::kNone;
  // If non-empty, provenance records are persisted here (GL and BL).
  std::string provenance_file;
  // Optional per-record observer, called on the provenance-sink thread.
  std::function<void(const ProvenanceRecord&)> provenance_consumer;
  // BL only: let the source store evict tuples that can no longer contribute
  // (an oracle the paper's baseline does not have) — the eviction ablation.
  bool baseline_oracle_eviction = false;

  const EngineOptions& engine() const { return *this; }
  EngineOptions& engine() { return *this; }
};

namespace dataflow_internal {

// One producing endpoint in the plan: operator `op`'s output `out` (out > 0
// only for Multiplex taps).
struct PlanInput {
  size_t op = 0;
  size_t out = 0;
};

enum class OpKind : uint8_t { kSource, kOperator, kSink };

// One logical operator. `make` creates the runtime node inside a topology;
// everything else is what the lowering needs to wire and weave around it.
struct PlanOp {
  OpKind kind = OpKind::kOperator;
  std::string name;
  int instance = 1;
  std::vector<PlanInput> inputs;  // in input-port order
  size_t n_outputs = 1;           // Multiplex tap count; 0 for sinks
  // Stateful window span (Aggregate WS, Join WS) — summed into the
  // provenance finalize slack and the MU join window (§6.1). Counted once
  // for a parallel stage: the replicas share one logical window.
  int64_t window_span = 0;
  // Stateful operators (Aggregate, Join) buffer tuples across time; the
  // validator uses this to reject plans where a parallel stage feeds a
  // second stateful consumer (see Validate in dataflow.cc).
  bool stateful = false;
  std::function<Node*(Topology&)> make;
  // Key-partitioned parallel stage (KeyBy/Parallel): when `make_partition`
  // is set, `make` is unused and the lowering builds
  //   make_partition() -> `parallelism` x make_replica(r) -> KeyedMergeNode,
  // with entry = partition and exit = merge. The replica factory receives
  // the merge so it can record per-output order tokens (spe/parallel.h).
  int parallelism = 1;
  std::function<Node*(Topology&)> make_partition;
  std::function<Node*(Topology&, KeyedMergeNode*, int)> make_replica;

  bool is_parallel_stage() const { return make_partition != nullptr; }
};

struct Plan {
  DataflowOptions options;
  std::vector<PlanOp> ops;
  bool built = false;

  size_t AddOp(PlanOp op) {
    if (built) {
      throw std::logic_error("Dataflow: operator added after Build()");
    }
    ops.push_back(std::move(op));
    return ops.size() - 1;
  }
};

}  // namespace dataflow_internal

// The lowered, runnable query: owns the topologies and channels and exposes
// the probe nodes harnesses read. Probe pointers stay valid while the
// topologies live.
struct BuiltDataflow {
  std::vector<std::unique_ptr<Topology>> topologies;
  std::vector<std::unique_ptr<ByteChannel>> channels;

  std::vector<SourceNodeBase*> sources;  // in plan order
  std::vector<SinkNode*> sinks;          // in plan order
  ProvenanceSinkNode* provenance_sink = nullptr;      // GL only
  BaselineResolverNode* baseline_resolver = nullptr;  // BL only
  std::vector<SuNode*> su_nodes;    // fused SUs, in weave order
  // Send nodes: one per inter-instance channel, except the pull-based U
  // channels (fused distributed GL), whose forward writer is a UServeNode.
  std::vector<SendNode*> send_nodes;
  // Pull-based U streams (genealog/pull.h): one serving node per crossing,
  // and the provenance instance's demand step (null without crossings).
  std::vector<UServeNode*> u_servers;
  const UDemand* u_demand = nullptr;

  // Live lineage index (GL with EngineOptions::lineage_store only); fed by
  // the provenance sink, shared with LineageQuery handles.
  std::shared_ptr<LineageStore> lineage_store;

  // Remote serving endpoint over the store (lineage_serve_addr non-empty):
  // started at Build() and kept alive with the dataflow, so a remote console
  // can ask while the topology executes and after it drains.
  std::shared_ptr<LineageService> lineage_service;

  int n_instances = 1;
  // Sum of the plan's stateful window spans: the GL sink's finalize slack
  // and the BL resolver's join slack, always sufficient.
  int64_t total_window_span = 0;

  SourceNodeBase* source() const {
    return sources.empty() ? nullptr : sources.front();
  }
  SinkNode* sink() const { return sinks.empty() ? nullptr : sinks.front(); }

  uint64_t network_bytes() const {
    uint64_t total = 0;
    for (const auto& c : channels) total += c->bytes_sent();
    return total;
  }

  // Aggregated wire-codec accounting over every frame the dataflow's
  // channels carried: Send nodes, U-stream servers and the pull requests of
  // the reverse direction (frames, raw vs encoded bytes; see WireStats).
  // Defined in genealog/instrument.cc.
  WireStats wire_stats() const;

  // Provenance probes over the GL sink's or the BL resolver's record writer
  // (defined in genealog/instrument.cc; 0 when the mode records no
  // provenance). provenance_bytes() is the encoded file volume.
  uint64_t provenance_records() const;
  double mean_origins_per_record() const;
  uint64_t provenance_bytes() const;

  // Handle for querying lineage while (or after) the dataflow runs. Throws
  // on use unless the plan was built with mode GL and
  // EngineOptions::lineage_store (GENEALOG_LINEAGE_STORE=1).
  LineageQuery lineage() const { return LineageQuery(lineage_store); }

  // Runs all topologies to completion (blocking); rethrows the first node
  // failure after aborting queues and channels.
  void Run();
};

// A typed handle to one logical stream of the plan. Handles are cheap values
// (pointer + indices) bound to the plan's stable heap allocation, so they
// stay usable until Build() even if the owning Dataflow is moved.
template <typename T>
class Stream {
 public:
  Stream() = default;

  // Map: `fn` emits zero or more Out tuples per input via the collector.
  template <typename Out>
  Stream<Out> Map(std::string name,
                  typename MapNode<T, Out>::Fn fn) const;

  Stream<T> Filter(std::string name,
                   typename FilterNode<T>::Predicate pred) const;

  // The group key type is deduced from `key_fn`'s return type; `combiner`
  // must be convertible to AggregateCombiner<T, Out, Key>.
  template <typename Out, typename KeyFn, typename Combiner>
  Stream<Out> Aggregate(std::string name, AggregateOptions options,
                        KeyFn key_fn, Combiner combiner) const;

  // Shorthand for KeyBy(key_fn).Parallel(parallelism).Aggregate(...): a
  // key-partitioned parallel Aggregate with `parallelism` shards.
  template <typename Out, typename KeyFn, typename Combiner>
  Stream<Out> Aggregate(std::string name, AggregateOptions options,
                        KeyFn key_fn, Combiner combiner,
                        int parallelism) const;

  // Key-partitions this stream for parallel aggregation. The returned handle
  // remembers `key_fn`; `.Parallel(n)` sets the shard count, and
  // `.Aggregate(...)` lowers to KeyPartitionNode -> n AggregateNode replicas
  // -> a KeyedMergeNode whose output is emission-order-identical to the
  // single-instance Aggregate (spe/parallel.h). The partition key *is* the
  // aggregation group key (one function), which is what keeps every per-key
  // window intact inside exactly one shard (the paper's Challenge C3
  // argument: one stateful consumer per tuple object, per partition).
  template <typename KeyFn>
  KeyedStream<T, KeyFn> KeyBy(KeyFn key_fn) const;

  // Windowed join; this stream is the left input (port 0), `right` port 1.
  // The operator runs on this handle's instance.
  template <typename Out, typename R>
  Stream<Out> Join(std::string name, Stream<R> right, JoinOptions options,
                   typename JoinNode<T, R, Out>::Predicate pred,
                   typename JoinNode<T, R, Out>::Combine combine) const;

  // Deterministic sorted merge of this stream (port 0) and `other` (port 1).
  Stream<T> Union(std::string name, Stream<T> other) const;

  // Fans this stream out into `n` independent copies (one MultiplexNode with
  // n taps). Streams are single-consumer; this is the only fan-out.
  std::vector<Stream<T>> Multiplex(std::string name, size_t n) const;

  // Deployment: operators chained after At(instance) are placed on that SPE
  // instance; the crossing edge is lowered to Send/Receive over a channel
  // (and, under GL, gets its SU + unfolded stream automatically).
  Stream<T> At(int instance) const;

  // Terminates the stream in a sink. Under GL the lowering interposes the
  // SU (Theorem 5.3) and routes the unfolded stream to the provenance sink;
  // under BL it taps the annotated stream into the baseline resolver.
  void Sink(std::string name, SinkNode::Consumer consumer = nullptr) const;

 private:
  friend class Dataflow;
  template <typename U>
  friend class Stream;
  template <typename U, typename KF>
  friend class KeyedStream;

  Stream(dataflow_internal::Plan* plan, size_t op, size_t out, int instance)
      : plan_(plan), op_(op), out_(out), instance_(instance) {}

  dataflow_internal::PlanInput input() const { return {op_, out_}; }

  dataflow_internal::Plan* plan_ = nullptr;
  size_t op_ = 0;
  size_t out_ = 0;
  int instance_ = 1;
};

// A stream paired with its partitioning key — the intermediate handle of
// `.KeyBy(key_fn).Parallel(n).Aggregate(...)`. Cheap value, same lifetime
// rules as Stream. Deployment is inherited from the stream the handle was
// made from (use `.At(n)` before KeyBy); the whole stage — partition,
// replicas, merge — is placed on that one instance.
template <typename T, typename KeyFn>
class KeyedStream {
 public:
  using Key = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
  static_assert(std::is_integral_v<Key> &&
                    (std::is_signed_v<Key> || sizeof(Key) < sizeof(int64_t)),
                "KeyBy: the key orders merged parallel firings, so it must "
                "be an integral type embeddable in int64_t");

  // Sets the shard count: the Aggregate that follows runs as `shards`
  // key-partitioned replicas. Plain n == 1 still lowers the full stage
  // (partition -> one replica -> merge), so sweeps over shard counts compare
  // like with like.
  KeyedStream Parallel(int shards) const {
    if (shards < 1) {
      throw std::logic_error("Dataflow: Parallel(n) needs n >= 1 shards");
    }
    KeyedStream keyed = *this;
    keyed.shards_ = shards;
    return keyed;
  }

  // The parallel Aggregate: group key and partition key are both `key_fn`
  // from KeyBy. Emission order and provenance are identical to the
  // single-instance `Stream::Aggregate` with the same arguments (the
  // determinism suites sweep this).
  template <typename Out, typename Combiner>
  Stream<Out> Aggregate(std::string name, AggregateOptions options,
                        Combiner combiner) const {
    using AggKeyFn = typename AggregateNode<T, Out, Key>::KeyFn;
    dataflow_internal::PlanOp op;
    op.name = name;
    op.instance = stream_.instance_;
    op.inputs = {stream_.input()};
    op.window_span = options.ws;
    op.stateful = true;
    op.parallelism = shards_;
    op.make_partition = [name, key_fn = key_fn_](Topology& topo) -> Node* {
      auto hash = [key_fn](const T& t) {
        return static_cast<uint64_t>(key_fn(t));
      };
      return topo.Add<KeyPartitionNode<T, decltype(hash)>>(name + ".partition",
                                                           hash);
    };
    op.make_replica =
        [name, options, key_fn = AggKeyFn(key_fn_),
         combiner = AggregateCombiner<T, Out, Key>(std::move(combiner))](
            Topology& topo, KeyedMergeNode* merge, int replica) -> Node* {
      return topo.Add<AggregateNode<T, Out, Key>>(
          name + ".agg" + std::to_string(replica), options, key_fn,
          TokenRecordingCombiner<T, Out, Key>(combiner, merge));
    };
    return Stream<Out>(stream_.plan_, stream_.plan_->AddOp(std::move(op)), 0,
                       stream_.instance_);
  }

 private:
  template <typename U>
  friend class Stream;

  KeyedStream(Stream<T> stream, KeyFn key_fn)
      : stream_(stream), key_fn_(std::move(key_fn)) {}

  Stream<T> stream_;
  KeyFn key_fn_;
  int shards_ = 1;
};

class Dataflow {
 public:
  explicit Dataflow(DataflowOptions options = {})
      : plan_(std::make_unique<dataflow_internal::Plan>()) {
    plan_->options = std::move(options);
  }
  Dataflow(Dataflow&&) = default;
  Dataflow& operator=(Dataflow&&) = default;

  // Replays a pre-generated, timestamp-sorted dataset, owned by the source.
  template <typename T>
  Stream<T> Source(std::string name, std::vector<IntrusivePtr<T>> data,
                   SourceOptions source_options = {}) {
    return Source<T>(
        std::move(name),
        std::make_shared<const std::vector<IntrusivePtr<T>>>(std::move(data)),
        source_options);
  }
  // Replays a dataset shared with the caller, without a copy. A pointer
  // that owns nothing (an aliasing shared_ptr with an empty owner) borrows:
  // the caller keeps the dataset alive until every run of the built
  // dataflow has ended.
  template <typename T>
  Stream<T> Source(std::string name,
                   std::shared_ptr<const std::vector<IntrusivePtr<T>>> data,
                   SourceOptions source_options = {}) {
    dataflow_internal::PlanOp op;
    op.kind = dataflow_internal::OpKind::kSource;
    op.name = name;
    op.make = [name, data = std::move(data),
               source_options](Topology& topo) -> Node* {
      return topo.Add<VectorSourceNode<T>>(name, data, source_options);
    };
    return Stream<T>(plan_.get(), plan_->AddOp(std::move(op)), 0, 1);
  }

  // Callback-driven source: `gen` returns tuples in timestamp order and null
  // when exhausted.
  template <typename T>
  Stream<T> Source(std::string name, std::function<IntrusivePtr<T>()> gen) {
    dataflow_internal::PlanOp op;
    op.kind = dataflow_internal::OpKind::kSource;
    op.name = name;
    op.make = [name, gen = std::move(gen)](Topology& topo) -> Node* {
      return topo.Add<CallbackSourceNode<T>>(name, gen);
    };
    return Stream<T>(plan_.get(), plan_->AddOp(std::move(op)), 0, 1);
  }

  // Validates the recorded plan and lowers it (one-shot). Throws
  // std::logic_error on malformed plans: unconsumed or doubly-consumed
  // streams, no source/sink, more than one sink in a provenance mode, and
  // lineage_store or lineage_serve_addr set in a mode other than GL.
  BuiltDataflow Build();

  const dataflow_internal::Plan& plan() const { return *plan_; }

 private:
  std::unique_ptr<dataflow_internal::Plan> plan_;
};

// --- Stream combinator definitions -------------------------------------------

template <typename T>
template <typename Out>
Stream<Out> Stream<T>::Map(std::string name,
                           typename MapNode<T, Out>::Fn fn) const {
  dataflow_internal::PlanOp op;
  op.name = name;
  op.instance = instance_;
  op.inputs = {input()};
  op.make = [name, fn = std::move(fn)](Topology& topo) -> Node* {
    return topo.Add<MapNode<T, Out>>(name, fn);
  };
  return Stream<Out>(plan_, plan_->AddOp(std::move(op)), 0, instance_);
}

template <typename T>
Stream<T> Stream<T>::Filter(std::string name,
                            typename FilterNode<T>::Predicate pred) const {
  dataflow_internal::PlanOp op;
  op.name = name;
  op.instance = instance_;
  op.inputs = {input()};
  op.make = [name, pred = std::move(pred)](Topology& topo) -> Node* {
    return topo.Add<FilterNode<T>>(name, pred);
  };
  return Stream<T>(plan_, plan_->AddOp(std::move(op)), 0, instance_);
}

template <typename T>
template <typename Out, typename KeyFn, typename Combiner>
Stream<Out> Stream<T>::Aggregate(std::string name, AggregateOptions options,
                                 KeyFn key_fn, Combiner combiner) const {
  using Key = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
  dataflow_internal::PlanOp op;
  op.name = name;
  op.instance = instance_;
  op.inputs = {input()};
  op.window_span = options.ws;
  op.stateful = true;
  op.make = [name, options,
             key_fn = typename AggregateNode<T, Out, Key>::KeyFn(
                 std::move(key_fn)),
             combiner = AggregateCombiner<T, Out, Key>(std::move(combiner))](
                Topology& topo) -> Node* {
    return topo.Add<AggregateNode<T, Out, Key>>(name, options, key_fn,
                                                combiner);
  };
  return Stream<Out>(plan_, plan_->AddOp(std::move(op)), 0, instance_);
}

template <typename T>
template <typename Out, typename KeyFn, typename Combiner>
Stream<Out> Stream<T>::Aggregate(std::string name, AggregateOptions options,
                                 KeyFn key_fn, Combiner combiner,
                                 int parallelism) const {
  return KeyBy(std::move(key_fn))
      .Parallel(parallelism)
      .template Aggregate<Out>(std::move(name), options, std::move(combiner));
}

template <typename T>
template <typename KeyFn>
KeyedStream<T, KeyFn> Stream<T>::KeyBy(KeyFn key_fn) const {
  return KeyedStream<T, KeyFn>(*this, std::move(key_fn));
}

template <typename T>
template <typename Out, typename R>
Stream<Out> Stream<T>::Join(std::string name, Stream<R> right,
                            JoinOptions options,
                            typename JoinNode<T, R, Out>::Predicate pred,
                            typename JoinNode<T, R, Out>::Combine combine)
    const {
  dataflow_internal::PlanOp op;
  op.name = name;
  op.instance = instance_;
  op.inputs = {input(), right.input()};  // port 0 = left, port 1 = right
  op.window_span = options.ws;
  op.stateful = true;
  op.make = [name, options, pred = std::move(pred),
             combine = std::move(combine)](Topology& topo) -> Node* {
    return topo.Add<JoinNode<T, R, Out>>(name, options, pred, combine);
  };
  return Stream<Out>(plan_, plan_->AddOp(std::move(op)), 0, instance_);
}

template <typename T>
Stream<T> Stream<T>::Union(std::string name, Stream<T> other) const {
  dataflow_internal::PlanOp op;
  op.name = name;
  op.instance = instance_;
  op.inputs = {input(), other.input()};
  op.make = [name](Topology& topo) -> Node* {
    return topo.Add<UnionNode>(name);
  };
  return Stream<T>(plan_, plan_->AddOp(std::move(op)), 0, instance_);
}

template <typename T>
std::vector<Stream<T>> Stream<T>::Multiplex(std::string name, size_t n) const {
  if (n == 0) {
    throw std::logic_error("Dataflow: Multiplex needs at least one tap");
  }
  dataflow_internal::PlanOp op;
  op.name = name;
  op.instance = instance_;
  op.inputs = {input()};
  op.n_outputs = n;
  op.make = [name](Topology& topo) -> Node* {
    return topo.Add<MultiplexNode>(name);
  };
  const size_t id = plan_->AddOp(std::move(op));
  std::vector<Stream<T>> taps;
  taps.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    taps.push_back(Stream<T>(plan_, id, i, instance_));
  }
  return taps;
}

template <typename T>
Stream<T> Stream<T>::At(int instance) const {
  if (instance < 1) {
    throw std::logic_error("Dataflow: instance ids start at 1");
  }
  return Stream<T>(plan_, op_, out_, instance);
}

template <typename T>
void Stream<T>::Sink(std::string name, SinkNode::Consumer consumer) const {
  dataflow_internal::PlanOp op;
  op.kind = dataflow_internal::OpKind::kSink;
  op.name = name;
  op.instance = instance_;
  op.inputs = {input()};
  op.n_outputs = 0;
  op.make = [name, consumer = std::move(consumer)](Topology& topo) -> Node* {
    return topo.Add<SinkNode>(name, consumer);
  };
  plan_->AddOp(std::move(op));
}

}  // namespace genealog

#endif  // GENEALOG_SPE_DATAFLOW_H_
