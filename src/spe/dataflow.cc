#include "spe/dataflow.h"

#include "genealog/instrument.h"

namespace genealog {

using dataflow_internal::OpKind;
using dataflow_internal::PlanInput;
using dataflow_internal::PlanOp;

namespace {

// The N-chain safety argument for key-partitioned stages (Challenge C3)
// needs every per-key window to live inside exactly one replica, and the
// downstream plan to be insensitive to how the N shard outputs were merged.
// The KeyedMergeNode restores the single-instance emission order for the
// merged stream itself, but a *second* stateful consumer downstream would
// window the merged stream again — its window contents would then hinge on
// the merge's reordering guarantees composing across stages, which is
// exactly the shape the paper's safety argument does not cover. Reject it:
// aggregate inside one (possibly parallel) stage, or drop the Parallel().
void ValidatePartitionedStages(const dataflow_internal::Plan& plan) {
  const auto& ops = plan.ops;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].is_parallel_stage()) continue;
    if (ops[i].parallelism < 1 || ops[i].make_replica == nullptr) {
      throw std::logic_error("Dataflow: parallel stage '" + ops[i].name +
                             "' is malformed (shards < 1 or no replica "
                             "factory)");
    }
    // Walk everything reachable downstream of the stage's merged output.
    std::vector<bool> reached(ops.size(), false);
    std::vector<size_t> frontier{i};
    reached[i] = true;
    while (!frontier.empty()) {
      const size_t cur = frontier.back();
      frontier.pop_back();
      for (size_t j = 0; j < ops.size(); ++j) {
        if (reached[j]) continue;
        bool consumes = false;
        for (const PlanInput& in : ops[j].inputs) {
          if (in.op == cur) {
            consumes = true;
            break;
          }
        }
        if (!consumes) continue;
        if (ops[j].stateful) {
          throw std::logic_error(
              "Dataflow: parallel stage '" + ops[i].name +
              "' feeds the stateful operator '" + ops[j].name +
              "' — a key-partitioned stage must be the last stateful step on "
              "its path to the Sink (fold the aggregation into the parallel "
              "stage, or remove Parallel())");
        }
        reached[j] = true;
        frontier.push_back(j);
      }
    }
  }
}

// Structural validation before lowering: every stream consumed exactly once,
// sources and sinks present, provenance modes single-sink.
void Validate(const dataflow_internal::Plan& plan) {
  const auto& ops = plan.ops;
  if (ops.empty()) {
    throw std::logic_error("Dataflow: empty plan");
  }
  size_t n_sources = 0;
  size_t n_sinks = 0;
  // consumers[op] counts, per output index, how often that tap is consumed.
  std::vector<std::vector<int>> consumed(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    consumed[i].assign(ops[i].n_outputs, 0);
  }
  for (const PlanOp& op : ops) {
    if (op.kind == OpKind::kSource) ++n_sources;
    if (op.kind == OpKind::kSink) ++n_sinks;
    for (const PlanInput& in : op.inputs) {
      if (in.op >= ops.size() || in.out >= ops[in.op].n_outputs) {
        throw std::logic_error("Dataflow: '" + op.name +
                               "' consumes a stream that does not exist");
      }
      ++consumed[in.op][in.out];
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t out = 0; out < consumed[i].size(); ++out) {
      if (consumed[i][out] == 0) {
        throw std::logic_error(
            "Dataflow: output of '" + ops[i].name +
            "' is never consumed (terminate every stream in a Sink)");
      }
      if (consumed[i][out] > 1) {
        throw std::logic_error("Dataflow: output of '" + ops[i].name +
                               "' is consumed more than once (streams are "
                               "single-consumer; use Multiplex to fan out)");
      }
    }
  }
  if (n_sources == 0) throw std::logic_error("Dataflow: no Source");
  if (n_sinks == 0) throw std::logic_error("Dataflow: no Sink");
  if (plan.options.mode != ProvenanceMode::kNone && n_sinks != 1) {
    throw std::logic_error(
        "Dataflow: provenance modes support exactly one Sink (the paper's "
        "per-sink provenance construction); found " +
        std::to_string(n_sinks));
  }
  ValidatePartitionedStages(plan);
}

}  // namespace

BuiltDataflow Dataflow::Build() {
  if (plan_->built) {
    throw std::logic_error("Dataflow: Build() called twice");
  }
  Validate(*plan_);
  plan_->built = true;
  BuiltDataflow out;
  LowerDataflow(*plan_, out);
  return out;
}

void BuiltDataflow::Run() { RunTopologies(topologies, channels); }

}  // namespace genealog
