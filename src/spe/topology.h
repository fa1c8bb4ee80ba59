// Query topology and execution.
//
// A Topology owns the operator nodes of one SPE instance and wires streams
// between them; a Runner executes one or more topologies on the one executor
// (spe/scheduler.h), propagating the first failure by aborting all queues.
#ifndef GENEALOG_SPE_TOPOLOGY_H_
#define GENEALOG_SPE_TOPOLOGY_H_

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
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
  // `engine` holds this instance's settings; every reader below takes them
  // from there. Throws std::invalid_argument for an instance id outside
  // [0, mem::kMaxInstances): each thread's counter shard has one slot per
  // instance id (common/counter_shard.h).
  explicit Topology(int instance_id = 0,
                    ProvenanceMode mode = ProvenanceMode::kNone,
                    EngineOptions engine = {});

  int instance_id() const { return instance_id_; }
  ProvenanceMode mode() const { return mode_; }

  // Batch size stamped on every stream wired by Connect (the Endpoint clamps
  // 0 to 1). 1 = unbatched item-at-a-time handover, the seed behavior.
  size_t default_batch_size() const { return engine_.batch_size; }
  // Placement requested for this topology's nodes. The Runner resolves the
  // effective placement across all its topologies.
  SchedulerMode scheduler() const { return engine_.scheduler; }
  // Shared worker threads under the pool placement; 0 = auto (one per
  // physical core, capped by the shared task count).
  size_t workers() const { return engine_.workers; }

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
  // Returns the input port index on `to`.
  size_t Connect(Node* from, Node* to);

  // Wires a chained edge from `from` into `to`, both of this topology; `to`
  // must be Chainable and have no other input. Every push runs `to` on the
  // thread stepping `from`, with no queue between them. `to` stays in
  // nodes() but gets no input queue and no task. Throws std::logic_error
  // otherwise.
  void Chain(Node* from, SingleInputNode* to);

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
  EngineOptions engine_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Abortable*> abortables_;
};

class WorkerPool;

// Runs topologies to completion. Usage:
//   Runner runner({&t1, &t2});
//   runner.Start();
//   runner.Join();   // rethrows the first node failure, if any
//
// The Runner reads its topologies' EngineOptions and nothing else: the pool
// placement applies only when every topology asks for it (mixed requests
// fall back to thread-per-node, the conservative placement), with the
// largest of their worker counts.
//
// Every node that is not chained into a producer is a task of one WorkerPool
// (spe/scheduler.h), keyed by topology index for fairness, and every
// Node::Step runs in bounded quanta from WorkerPool::Execute. The scheduler
// mode only picks placement: under thread-per-node (the Liebre model) every
// task has a home worker of its own; under the pool the tasks share the
// workers, except those reporting NeedsDedicatedThread(), which keep a home
// worker. The Runner starts no thread itself.
class Runner {
 public:
  explicit Runner(std::vector<Topology*> topologies);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  void Start();
  void Join();

  // Cooperative teardown: aborts every queue; nodes unwind promptly.
  void Abort();

  // Effective placement (valid after Start).
  SchedulerMode scheduler() const { return scheduler_; }
  const WorkerPool* pool() const { return pool_.get(); }

 private:
  void RecordFailure(std::exception_ptr error);

  std::vector<Topology*> topologies_;
  SchedulerMode scheduler_ = SchedulerMode::kThreadPerNode;
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
