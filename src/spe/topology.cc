#include "spe/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/memory_accounting.h"
#include "spe/scheduler.h"

namespace genealog {

Topology::Topology(int instance_id, ProvenanceMode mode, EngineOptions engine)
    : instance_id_(instance_id), mode_(mode), engine_(std::move(engine)) {
  if (instance_id_ < 0 || instance_id_ >= mem::kMaxInstances) {
    throw std::invalid_argument(
        "SPE instance " + std::to_string(instance_id_) + " is outside [0, " +
        std::to_string(mem::kMaxInstances) +
        "): memory accounting keeps one slot per instance id "
        "(mem::kMaxInstances)");
  }
}

size_t Topology::Connect(Node* from, Node* to) {
  Endpoint e = to->AddInput();
  e.set_batch_size(default_batch_size());
  // Every edge is a port on the consumer's one StreamQueue, whether `to` has
  // one producer or many (parallel merges, taps, MU fan-in).
  const size_t port = e.port();
  from->AddOutput(std::move(e));
  return port;
}

void Topology::Chain(Node* from, SingleInputNode* to) {
  from->AddOutput(to->AddChainedInput(default_batch_size()));
}

void Topology::AbortAll() {
  for (auto& node : nodes_) node->AbortQueues();
  for (Abortable* resource : abortables_) resource->Abort();
}

Runner::Runner(std::vector<Topology*> topologies)
    : topologies_(std::move(topologies)) {}

Runner::~Runner() {
  if (started_ && !joined_) {
    Abort();
    pool_->Join();
  }
}

void Runner::RecordFailure(std::exception_ptr error) {
  {
    std::lock_guard lock(error_mu_);
    if (first_error_ == nullptr) first_error_ = error;
  }
  failed_.store(true, std::memory_order_release);
  Abort();
}

void Runner::Start() {
  started_ = true;

  // The pool placement applies only when every topology asked for it, with
  // the largest of their worker counts.
  scheduler_ = topologies_.empty() ? SchedulerMode::kThreadPerNode
                                   : SchedulerMode::kPool;
  size_t workers = 0;
  for (Topology* topology : topologies_) {
    if (topology->scheduler() != SchedulerMode::kPool) {
      scheduler_ = SchedulerMode::kThreadPerNode;
    }
    workers = std::max(workers, topology->workers());
  }

  // One placement rule: a task gets a home worker of its own under
  // thread-per-node, or when it blocks on a non-queue resource (network,
  // rate-limiter clock, retention index); every other task shares the
  // pool's workers under its topology's fairness bucket. A chained node is
  // no task: its chain's head steps it.
  pool_ = std::make_unique<WorkerPool>(workers);
  for (uint32_t q = 0; q < topologies_.size(); ++q) {
    for (auto& node : topologies_[q]->nodes()) {
      if (node->chained()) continue;
      pool_->AddNode(node.get(), q,
                     scheduler_ != SchedulerMode::kPool ||
                         node->NeedsDedicatedThread());
    }
  }
  pool_->Start([this](std::exception_ptr error) { RecordFailure(error); });
}

void Runner::Join() {
  if (pool_ != nullptr) pool_->Join();
  joined_ = true;
  if (failed_.load(std::memory_order_acquire)) {
    std::lock_guard lock(error_mu_);
    if (first_error_ != nullptr) std::rethrow_exception(first_error_);
  }
}

void Runner::Abort() {
  for (Topology* topology : topologies_) topology->AbortAll();
  if (pool_ != nullptr) pool_->Kick();
}

void RunToCompletion(Topology& topology) {
  Runner runner({&topology});
  runner.Start();
  runner.Join();
}

}  // namespace genealog
