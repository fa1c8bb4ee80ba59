#include "spe/topology.h"

#include <algorithm>
#include <thread>

#include "common/memory_accounting.h"
#include "spe/scheduler.h"

namespace genealog {

size_t Topology::Connect(Node* from, Node* to) {
  Endpoint e = to->AddInput();
  e.set_batch_size(default_batch_size());
  // Every edge is a port on the consumer's one StreamQueue, whether `to` has
  // one producer or many (parallel merges, taps, MU fan-in).
  const size_t port = e.port();
  from->AddOutput(std::move(e));
  return port;
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
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    if (pool_ != nullptr) pool_->Join();
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

  // The pool runs only when every topology asked for it, with the largest of
  // their worker counts.
  scheduler_ = topologies_.empty() ? SchedulerMode::kThreadPerNode
                                   : SchedulerMode::kPool;
  size_t workers = 0;
  for (Topology* topology : topologies_) {
    if (topology->scheduler() != SchedulerMode::kPool) {
      scheduler_ = SchedulerMode::kThreadPerNode;
    }
    workers = std::max(workers, topology->workers());
  }

  // One placement rule: under the pool, every node that does not block on a
  // non-queue resource (network, rate-limiter clock) joins the shared pool
  // under its topology's fairness bucket; every other node gets a dedicated
  // thread that steps it to the end of its stream.
  if (scheduler_ == SchedulerMode::kPool) {
    pool_ = std::make_unique<WorkerPool>(workers);
  }
  std::vector<Node*> dedicated;
  for (uint32_t q = 0; q < topologies_.size(); ++q) {
    for (auto& node : topologies_[q]->nodes()) {
      if (pool_ != nullptr && !node->NeedsDedicatedThread()) {
        pool_->AddNode(node.get(), q);
      } else {
        dedicated.push_back(node.get());
      }
    }
  }
  // Start the pool (which attaches the edge signal hooks) before any
  // dedicated thread runs: a dedicated producer's first Push may race the
  // signal attachment otherwise.
  if (pool_ != nullptr) {
    pool_->Start([this](std::exception_ptr error) { RecordFailure(error); });
  }
  for (Node* node : dedicated) {
    threads_.emplace_back([this, node] {
      mem::SetCurrentInstance(node->instance_id());
      try {
        while (node->Step(kUnbounded) != StepResult::kDone) {
        }
      } catch (...) {
        RecordFailure(std::current_exception());
      }
    });
  }
}

void Runner::Join() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
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
