#include "genealog/instrument.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baseline/resolver.h"
#include "genealog/mu.h"
#include "genealog/provenance_sink.h"
#include "genealog/pull.h"
#include "genealog/su.h"
#include "net/send_receive.h"
#include "spe/parallel.h"

namespace genealog {
namespace {

using dataflow_internal::OpKind;
using dataflow_internal::Plan;
using dataflow_internal::PlanInput;
using dataflow_internal::PlanOp;

// A same-instance edge. A Chainable consumer (Filter, Map, Multiplex,
// Router, push SU, Sink) runs inside its producer's task with no queue
// between them (Topology::Chain); every other consumer gets a queue.
void Wire(Topology& topo, Node* from, Node* to) {
  auto* consumer = dynamic_cast<SingleInputNode*>(to);
  if (consumer != nullptr && consumer->Chainable()) {
    topo.Chain(from, consumer);
  } else {
    topo.Connect(from, to);
  }
}

struct Crossing {
  SendNode* send;
  ReceiveNode* recv;
};

// Places one serializing channel from `from` to `to`: a Send node
// "send.<tag>" (registered for BuiltDataflow::wire_stats()) and its Receive
// node "recv.<tag>".
Crossing WeaveCrossing(BuiltDataflow& out, Topology& from, Topology& to,
                       const std::string& tag, bool use_tcp) {
  ChannelEnds ch = AddChannelTo(out.channels, use_tcp);
  auto* send = from.Add<SendNode>("send." + tag, ch.send);
  out.send_nodes.push_back(send);
  return {send, to.Add<ReceiveNode>("recv." + tag, ch.recv)};
}

}  // namespace

void LowerDataflow(const Plan& plan, BuiltDataflow& out) {
  const DataflowOptions& opts = plan.options;
  const EngineOptions& engine = opts.engine();
  const ProvenanceMode mode = opts.mode;

  // --- instances, topologies, window spans ---------------------------------
  std::map<int, Topology*> topo_of;  // instance id -> topology, ascending
  std::map<int, int64_t> span_of;    // stateful window span per instance
  int64_t total_span = 0;
  for (const PlanOp& op : plan.ops) {
    topo_of[op.instance] = nullptr;
    span_of[op.instance] += op.window_span;
    total_span += op.window_span;
  }
  const bool distributed = topo_of.size() > 1;
  const int max_instance = topo_of.rbegin()->first;

  for (auto& [instance, topo] : topo_of) {
    auto owned = std::make_unique<Topology>(instance, mode, engine);
    topo = owned.get();
    out.topologies.push_back(std::move(owned));
  }
  // Distributed GL/BL record provenance on a dedicated instance (§6).
  Topology* prov_topo = nullptr;
  if (distributed && mode != ProvenanceMode::kNone) {
    auto owned = std::make_unique<Topology>(max_instance + 1, mode, engine);
    prov_topo = owned.get();
    out.topologies.push_back(std::move(owned));
  }
  out.n_instances = static_cast<int>(out.topologies.size());

  // --- operator nodes -------------------------------------------------------
  // entry_of[i] = the node producers of op i connect into; exit_of[i] = the
  // node producing op i's output. They diverge from the operator node itself
  // exactly where the weaving interposes machinery: BL source taps on the
  // exit side, SUs / BL sink taps on the sink's entry side.
  std::vector<Node*> node_of(plan.ops.size(), nullptr);
  std::vector<Node*> entry_of(plan.ops.size(), nullptr);
  std::vector<Node*> exit_of(plan.ops.size(), nullptr);
  std::vector<std::pair<Topology*, Node*>> source_taps;  // BL, plan order
  size_t sink_op = plan.ops.size();
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    if (plan.ops[i].kind == OpKind::kSink) sink_op = i;
  }
  // U-stream exit of a parallel stage whose replicas got their own SUs (set
  // below); the GL sink weaving routes it into the provenance sink instead
  // of interposing another SU.
  Node* parallel_u_exit = nullptr;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    Topology& topo = *topo_of.at(op.instance);
    if (op.is_parallel_stage()) {
      // Key-partitioned stage: partition -> N replicas -> keyed merge. The
      // stage is atomic on one instance; producers connect into the
      // partition, consumers read the merge.
      //
      // Parallel-SU placement: when the merged stream feeds the sink
      // directly (same process, same instance), each replica gets its own
      // SU so the per-sink-tuple provenance traversal (the Figure 14 cost)
      // runs inside the shards, in parallel, instead of serializing after
      // the merge. SO streams keep flowing into the merge — the SU forwards
      // the same tuple objects, so the merge's order-token handshake is
      // unaffected — and the U streams
      // union into the provenance sink. Every merged tuple reaches the sink
      // (the merge filters nothing), so the record set is exactly the
      // single-SU set.
      const bool parallel_su =
          mode == ProvenanceMode::kGenealog && !distributed &&
          sink_op < plan.ops.size() &&
          plan.ops[sink_op].inputs.size() == 1 &&
          plan.ops[sink_op].inputs[0].op == i &&
          plan.ops[sink_op].instance == op.instance;
      auto* partition = op.make_partition(topo);
      auto* merge = topo.Add<KeyedMergeNode>(op.name + ".merge");
      Node* u_merge = parallel_su
                          ? topo.Add<UnionNode>(op.name + ".u_merge")
                          : nullptr;
      for (int r = 0; r < op.parallelism; ++r) {
        Node* replica = op.make_replica(topo, merge, r);
        topo.Connect(partition, replica);  // shards keep their own tasks
        if (parallel_su) {
          auto* su = topo.Add<SuNode>("SU.par" + std::to_string(r));
          Wire(topo, replica, su);
          Wire(topo, su, merge);    // output 0 = SO
          Wire(topo, su, u_merge);  // output 1 = U
          out.su_nodes.push_back(su);
        } else {
          Wire(topo, replica, merge);
        }
      }
      if (parallel_su) parallel_u_exit = u_merge;
      node_of[i] = merge;
      entry_of[i] = partition;
      exit_of[i] = merge;
      if (op.kind == OpKind::kSink) {
        throw std::logic_error("Dataflow: a Sink cannot be a parallel stage");
      }
      continue;
    }
    node_of[i] = op.make(topo);
    entry_of[i] = exit_of[i] = node_of[i];
    switch (op.kind) {
      case OpKind::kSource: {
        out.sources.push_back(static_cast<SourceNodeBase*>(node_of[i]));
        if (mode == ProvenanceMode::kBaseline) {
          // BL ships (a copy of) every source stream to the resolver.
          auto* tap = topo.Add<MultiplexNode>("bl.source_tap." + op.name);
          Wire(topo, node_of[i], tap);
          exit_of[i] = tap;
          source_taps.emplace_back(&topo, tap);
        }
        break;
      }
      case OpKind::kSink:
        out.sinks.push_back(static_cast<SinkNode*>(node_of[i]));
        sink_op = i;
        break;
      case OpKind::kOperator:
        break;
    }
  }

  // --- provenance weaving around the sink -----------------------------------
  MuNode* mu = nullptr;
  // Distributed GL pulls the upstream U streams (genealog/pull.h): the
  // derived stream's Receive gets the demand tap once the crossings below
  // have their U channels.
  const bool pull = mode == ProvenanceMode::kGenealog && distributed;
  int64_t mu_ws = 0;
  ReceiveNode* derived_recv = nullptr;
  std::vector<UDemand::Upstream> upstreams;
  if (mode == ProvenanceMode::kGenealog) {
    ProvenanceSinkSpec pso;
    pso.file_path = opts.provenance_file;
    pso.consumer = opts.provenance_consumer;
    if (engine.lineage_store || !engine.lineage_serve_addr.empty()) {
      // A serve address implies the store — nothing to serve without one.
      out.lineage_store =
          std::make_shared<LineageStore>(MakeLineageOptions(engine));
    }
    pso.lineage = out.lineage_store.get();
    Topology& sink_topo = *topo_of.at(plan.ops[sink_op].instance);
    Node* sink_node = node_of[sink_op];
    if (!distributed) {
      // Theorem 5.3: one SU before the sink; U feeds the provenance sink.
      // With parallel-SU placement the unfolding already happened inside
      // the shards — route the unioned U streams straight in.
      auto* psink = sink_topo.Add<ProvenanceSinkNode>("K2", pso);
      out.provenance_sink = psink;
      if (parallel_u_exit != nullptr) {
        Wire(sink_topo, parallel_u_exit, psink);
      } else {
        auto* su = sink_topo.Add<SuNode>("SU");
        Wire(sink_topo, su, sink_node);  // output 0 = SO
        Wire(sink_topo, su, psink);      // output 1 = U
        out.su_nodes.push_back(su);
        entry_of[sink_op] = su;
      }
    } else {
      auto* psink = prov_topo->Add<ProvenanceSinkNode>("K2", pso);
      out.provenance_sink = psink;
      // MU join window: the stateful window span of the instance producing
      // the derived (sink-side) stream (§6.1).
      mu_ws = span_of.at(plan.ops[sink_op].instance);
      mu = prov_topo->Add<MuNode>("MU", mu_ws);
      Wire(*prov_topo, mu, psink);
      const Crossing derived =
          WeaveCrossing(out, sink_topo, *prov_topo, "U_sink", engine.use_tcp);
      derived_recv = derived.recv;
      auto* su = sink_topo.Add<SuNode>("SU.sink");
      Wire(sink_topo, su, sink_node);     // output 0 = SO
      Wire(sink_topo, su, derived.send);  // output 1 = U
      out.su_nodes.push_back(su);
      entry_of[sink_op] = su;
      Wire(*prov_topo, derived.recv, mu);  // MU port 0
    }
  } else if (mode == ProvenanceMode::kBaseline) {
    BaselineResolverOptions bro;
    // BL's source copies can trail a sink tuple by every window of the plan.
    bro.slack = total_span;
    bro.evict = opts.baseline_oracle_eviction;
    bro.file_path = opts.provenance_file;
    bro.consumer = opts.provenance_consumer;
    Topology& sink_topo = *topo_of.at(plan.ops[sink_op].instance);
    Node* sink_node = node_of[sink_op];
    auto* sink_tap = sink_topo.Add<MultiplexNode>("bl.sink_tap");
    Wire(sink_topo, sink_tap, sink_node);
    entry_of[sink_op] = sink_tap;
    if (!distributed) {
      auto* resolver =
          sink_topo.Add<BaselineResolverNode>("bl.resolver", bro);
      out.baseline_resolver = resolver;
      // Resolver port order matters: 0 = annotated sink stream, 1.. = source
      // streams.
      Wire(sink_topo, sink_tap, resolver);
      for (auto& [topo, tap] : source_taps) Wire(*topo, tap, resolver);
    } else {
      auto* resolver =
          prov_topo->Add<BaselineResolverNode>("bl.resolver", bro);
      out.baseline_resolver = resolver;
      const Crossing ann =
          WeaveCrossing(out, sink_topo, *prov_topo, "sink_ann", engine.use_tcp);
      Wire(sink_topo, sink_tap, ann.send);
      Wire(*prov_topo, ann.recv, resolver);  // port 0
      // Whole source streams shipped to the provenance instance — the
      // network cost §7 observes sinking the distributed baseline.
      for (size_t s = 0; s < source_taps.size(); ++s) {
        auto& [src_topo, tap] = source_taps[s];
        const Crossing copy =
            WeaveCrossing(out, *src_topo, *prov_topo,
                          "source_copy" + std::to_string(s), engine.use_tcp);
        Wire(*src_topo, tap, copy.send);
        Wire(*prov_topo, copy.recv, resolver);  // ports 1..
      }
    }
  }

  // --- data edges -----------------------------------------------------------
  // Consumers in plan order, input ports in declared order: input port
  // indices (Join left/right, Union/MU merge order) are a pure function of
  // the plan. Same-instance edges are wired directly (chained where the
  // consumer is Chainable); instance-crossing edges get a serializing
  // channel — and, under GL, the per-delivering-stream SU whose U feeds the
  // next MU upstream port.
  size_t n_cross = 0;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    for (const PlanInput& in : op.inputs) {
      const PlanOp& producer = plan.ops[in.op];
      Topology& from_topo = *topo_of.at(producer.instance);
      Topology& to_topo = *topo_of.at(op.instance);
      Node* from = exit_of[in.op];
      Node* to = entry_of[i];
      if (producer.instance == op.instance) {
        Wire(from_topo, from, to);
        continue;
      }
      const std::string tag = std::to_string(n_cross++);
      const Crossing data =
          WeaveCrossing(out, from_topo, to_topo, "data" + tag, engine.use_tcp);
      if (pull) {
        // The crossing SU retains; the serving node "send.U<tag>" answers
        // the demand step's requests over the same U channel.
        ChannelEnds u = AddChannelTo(out.channels, engine.use_tcp);
        auto* su = from_topo.Add<SuNode>("SU.send" + tag,
                                         RetentionSpec{.ws = mu_ws});
        Wire(from_topo, from, su);
        Wire(from_topo, su, data.send);  // the only output: SO
        out.su_nodes.push_back(su);
        out.u_servers.push_back(
            from_topo.Add<UServeNode>("send.U" + tag, su, u.send));
        auto* recv = prov_topo->Add<ReceiveNode>("recv.U" + tag, u.recv);
        Wire(*prov_topo, recv, mu);  // MU ports 1..
        upstreams.push_back({"U" + tag, u.recv});
      } else {
        Wire(from_topo, from, data.send);
      }
      Wire(to_topo, data.recv, to);
    }
  }

  if (pull && !upstreams.empty()) {
    auto demand = std::make_unique<UDemand>(derived_recv->name(), mu_ws,
                                            std::move(upstreams));
    out.u_demand = demand.get();
    derived_recv->set_tap(std::move(demand));
  }

  // Remote lineage serving rides on the store: bind the endpoint at Build()
  // so a console can attach before (and while) the dataflow runs.
  if (out.lineage_store != nullptr && !engine.lineage_serve_addr.empty()) {
    out.lineage_service = std::make_shared<LineageService>(
        out.lineage_store, ParseServeAddr(engine.lineage_serve_addr));
    out.lineage_service->Start();
  }
}

WireStats BuiltDataflow::wire_stats() const {
  WireStats total;
  for (const SendNode* s : send_nodes) total += s->wire_stats();
  for (const UServeNode* s : u_servers) total += s->wire_stats();
  if (u_demand != nullptr) total += u_demand->wire_stats();
  return total;
}

namespace {

// The GL sink's or the BL resolver's record writer; an empty one under NP.
const ProvenanceFileWriter& ProvenanceOutput(const BuiltDataflow& q) {
  static const ProvenanceFileWriter kNoProvenance("NP", "", 0);
  if (q.provenance_sink != nullptr) return q.provenance_sink->output();
  if (q.baseline_resolver != nullptr) return q.baseline_resolver->output();
  return kNoProvenance;
}

}  // namespace

uint64_t BuiltDataflow::provenance_records() const {
  return ProvenanceOutput(*this).records();
}

double BuiltDataflow::mean_origins_per_record() const {
  return ProvenanceOutput(*this).mean_origins_per_record();
}

uint64_t BuiltDataflow::provenance_bytes() const {
  return ProvenanceOutput(*this).bytes_written();
}

}  // namespace genealog
