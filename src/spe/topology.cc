#include "spe/topology.h"

#include <algorithm>
#include <thread>

#include "common/memory_accounting.h"
#include "spe/scheduler.h"

namespace genealog {

size_t Topology::Connect(Node* from, Node* to, size_t capacity,
                         size_t batch_size) {
  Endpoint e = to->AddInput(capacity);
  e.set_batch_size(batch_size == 0 ? default_batch_size_ : batch_size);
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

Runner::Runner(std::vector<Topology*> topologies, RunnerOptions options)
    : topologies_(std::move(topologies)), options_(options) {}

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

  // Resolve the effective mode: an explicit override wins; otherwise the
  // pool runs only when every topology asked for it.
  if (options_.scheduler.has_value()) {
    scheduler_ = *options_.scheduler;
  } else {
    scheduler_ = SchedulerMode::kPool;
    for (Topology* topology : topologies_) {
      if (topology->scheduler() != SchedulerMode::kPool) {
        scheduler_ = SchedulerMode::kThreadPerNode;
        break;
      }
    }
    if (topologies_.empty()) scheduler_ = SchedulerMode::kThreadPerNode;
  }

  // One placement rule: under the pool, every node that does not block on a
  // non-queue resource (network, rate-limiter clock) joins the shared pool
  // under its topology's fairness bucket; every other node gets a dedicated
  // thread that steps it to the end of its stream.
  if (scheduler_ == SchedulerMode::kPool) {
    WorkerPoolOptions pool_options;
    if (options_.workers.has_value()) {
      pool_options.workers = *options_.workers;
    } else {
      for (Topology* topology : topologies_) {
        pool_options.workers =
            std::max(pool_options.workers, topology->workers());
      }
    }
    pool_ = std::make_unique<WorkerPool>(pool_options);
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
