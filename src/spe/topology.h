// Query topology and execution.
//
// A Topology owns the operator nodes of one SPE instance and wires streams
// between them; a Runner executes one or more topologies, on a thread per node
// (the Liebre model) or a shared worker pool, propagating the first failure
// by aborting all queues.
#ifndef GENEALOG_SPE_TOPOLOGY_H_
#define GENEALOG_SPE_TOPOLOGY_H_

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/engine_options.h"
#include "spe/node.h"

namespace genealog {

// Anything with an Abort() that unblocks waiters — ByteChannel implements
// this so failing runs can tear down network waits, not just queues.
class Abortable {
 public:
  virtual ~Abortable() = default;
  virtual void Abort() = 0;
};

class Topology {
 public:
  explicit Topology(int instance_id = 0, ProvenanceMode mode = ProvenanceMode::kNone)
      : instance_id_(instance_id), mode_(mode) {}

  int instance_id() const { return instance_id_; }
  ProvenanceMode mode() const { return mode_; }

  // Batch size stamped on every stream wired by Connect (unless overridden
  // per edge). 1 = unbatched item-at-a-time handover, the seed behavior.
  size_t default_batch_size() const { return default_batch_size_; }
  void set_default_batch_size(size_t n) {
    default_batch_size_ = n == 0 ? 1 : n;
  }

  // Execution model requested for this topology (default from
  // GENEALOG_SCHEDULER): thread-per-node, or the shared morsel-driven worker
  // pool. The Runner resolves the effective mode across all its topologies
  // (see RunnerOptions).
  SchedulerMode scheduler() const { return scheduler_; }
  void set_scheduler(SchedulerMode mode) { scheduler_ = mode; }

  // Worker threads for pool mode; 0 = auto (one per hardware thread, capped
  // by the task count). Default from GENEALOG_WORKERS.
  size_t workers() const { return workers_; }
  void set_workers(size_t n) { workers_ = n; }

  // Stamps the data-plane subset of a unified EngineOptions (batch size,
  // scheduler, workers) in one call; the per-knob setters above remain for
  // targeted overrides.
  void Configure(const EngineOptions& engine) {
    set_default_batch_size(engine.batch_size);
    set_scheduler(engine.scheduler);
    set_workers(engine.workers);
  }

  // Constructs a node in this topology; instance id and provenance mode are
  // inherited. Returns a non-owning pointer valid for the topology's life.
  template <typename N, typename... Args>
  N* Add(Args&&... args) {
    auto node = std::make_unique<N>(std::forward<Args>(args)...);
    node->set_instance_id(instance_id_);
    node->set_mode(mode_);
    N* raw = node.get();
    nodes_.push_back(std::move(node));
    return raw;
  }

  // Wires a stream from `from` to a fresh input port of `to`. The order of
  // Connect calls defines output indices on `from` (meaningful for Multiplex
  // and SU) and input ports on `to` (meaningful for Join: 0 = left,
  // 1 = right; and MU: 0 = derived, 1.. = upstream).
  // Returns the input port index on `to`. `batch_size` overrides the
  // topology default for this edge (0 = use the default).
  size_t Connect(Node* from, Node* to,
                 size_t capacity = kDefaultQueueCapacity,
                 size_t batch_size = 0);

  // Registers an external resource (e.g. a channel a Receive node blocks on)
  // to be aborted together with the node queues when a run fails.
  void RegisterAbortable(Abortable* resource) {
    abortables_.push_back(resource);
  }

  void AbortAll();

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }

 private:
  int instance_id_;
  ProvenanceMode mode_;
  size_t default_batch_size_ = kDefaultBatchSize;
  SchedulerMode scheduler_ = engine_defaults::Scheduler();
  size_t workers_ = engine_defaults::Workers();
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Abortable*> abortables_;
};

class WorkerPool;

// Execution overrides a harness can impose on a Runner regardless of what the
// individual topologies were configured with (benches compare modes on the
// same topology objects this way).
struct RunnerOptions {
  // Unset: pool mode iff every topology asked for it (mixed requests fall
  // back to thread-per-node, the conservative mode).
  std::optional<SchedulerMode> scheduler;
  // Unset: the max of the topologies' nonzero worker counts (0 = auto).
  std::optional<size_t> workers;
};

// Runs topologies to completion. Usage:
//   Runner runner({&t1, &t2});
//   runner.Start();
//   runner.Join();   // rethrows the first node failure, if any
//
// Every node runs the same body, Node::Step, in one of two places. Under the
// pool, nodes join one shared morsel-driven WorkerPool (see spe/scheduler.h)
// keyed by topology index for fairness, and Step runs in bounded quanta.
// Every other node — all of them under thread-per-node (the Liebre model),
// and those reporting NeedsDedicatedThread() under the pool — gets a
// dedicated thread that steps it once with an unbounded budget.
class Runner {
 public:
  explicit Runner(std::vector<Topology*> topologies, RunnerOptions options = {});
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  void Start();
  void Join();

  // Cooperative teardown: aborts every queue; nodes unwind promptly.
  void Abort();

  // Effective mode after resolving overrides (valid after Start).
  SchedulerMode scheduler() const { return scheduler_; }
  const WorkerPool* pool() const { return pool_.get(); }

 private:
  void RecordFailure(std::exception_ptr error);

  std::vector<Topology*> topologies_;
  RunnerOptions options_;
  SchedulerMode scheduler_ = SchedulerMode::kThreadPerNode;
  std::vector<std::thread> threads_;
  std::unique_ptr<WorkerPool> pool_;
  std::atomic<bool> failed_{false};
  std::exception_ptr first_error_;
  std::mutex error_mu_;
  bool started_ = false;
  bool joined_ = false;
};

// Convenience: run a single topology to completion, rethrowing failures.
void RunToCompletion(Topology& topology);

}  // namespace genealog

#endif  // GENEALOG_SPE_TOPOLOGY_H_
