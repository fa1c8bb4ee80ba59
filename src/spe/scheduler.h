// The executor: every node of a run that is not chained into its producer
// (Topology::Chain) is a task stepped by WorkerPool::Execute. It is the morsel-driven worker pool (the Leis et al.
// execution model adapted to the streaming engine — thousands of queries on
// a handful of threads) with one placement choice per task:
//
//  * A shared task runs on the pool's workers. Each worker owns a Chase–Lev
//    work-stealing deque; signals raised *by* a worker land in its own deque
//    (producer–consumer cache locality), while external threads and
//    budget-exhausted tasks go through a global injector whose per-query
//    FIFO buckets are served round-robin — the fairness device that keeps
//    one hot tenant from starving the rest. Idle workers park on an
//    eventcount (epoch + condvar) and are woken by the first enqueue.
//  * A homed task has a home worker of its own that steps only that task
//    and parks on the task's own eventcount. Thread-per-node (the Liebre
//    model the paper inherits) homes every task; the pool homes the nodes
//    that block on non-queue resources (NeedsDedicatedThread: network
//    channels, rate-limiter clocks, a retention index).
//
// Both placements run the same quantum and the same readiness protocol:
//
//  * Readiness is batch arrival. Every StreamQueue push fires a DataReady
//    signal that re-arms the consuming task (if it was parked); a pop fires
//    RoomFreed toward producers that spilled against a full edge.
//  * A task quantum (Node::Step) drains up to a morsel budget of input
//    batches, emits downstream without ever blocking on a queue (full edges
//    absorb the overflow into per-endpoint spill buffers, and the Step ends
//    at the next batch boundary), and yields. A task with spills is held
//    until RoomFreed lets them drain — that is all of the engine's
//    back-pressure.
//  * Sources are re-armable tasks: each quantum emits a bounded chunk.
//  * Teardown and first-failure propagation reuse the engine's abort
//    protocol: aborting the queues (and the channels) retires every task.
#ifndef GENEALOG_SPE_SCHEDULER_H_
#define GENEALOG_SPE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "spe/node.h"

namespace genealog {

class WorkerPool;

namespace scheduler_internal {

// Eventcount: Notify bumps the epoch and wakes a sleeper only when one is
// parked; Wait sleeps only while the epoch is unchanged from the caller's
// pre-re-check read. The seq_cst epoch bump after an enqueue and the seq_cst
// epoch read before the re-check give the Dekker-style guarantee that either
// the parker's re-check sees the enqueued work or the enqueuer sees a moved
// epoch waiter — no lost wakeups.
class EventCount {
 public:
  uint64_t Epoch() const { return epoch_.load(std::memory_order_seq_cst); }
  void Notify(bool all = false);
  void Wait(uint64_t epoch);

 private:
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> parked_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

// One schedulable node. The state machine makes wakeups lossless without a
// lock:
//
//   kIdle ──Notify──▶ kQueued ──dequeue──▶ kRunning ──step──▶ kIdle/kQueued
//                                             │ Notify
//                                             ▼
//                                          kNotified ──step end──▶ kQueued
//
// A Notify on an idle task enqueues it; on a running task it flips the state
// to kNotified so the executing worker re-enqueues after its quantum instead
// of parking — the signal can never fall between "saw the queue empty" and
// "went idle". kFinished is terminal (stream done, spills drained). A homed
// task's kQueued means "its home worker runs it next".
struct NodeTask {
  enum State : uint32_t { kIdle, kQueued, kRunning, kNotified, kFinished };

  Node* node = nullptr;
  uint32_t query = 0;  // fairness bucket (one per topology)
  std::atomic<uint32_t> state{kIdle};
  // Step reported kDone but spills were still out; retire once they drain.
  // Touched only by the executing worker.
  bool stream_done = false;
  // The task's home worker wakes here; null for a shared task.
  std::unique_ptr<EventCount> home;
};

// Fixed-capacity Chase–Lev work-stealing deque. The owner pushes and pops at
// the bottom (LIFO — the task it just made runnable is cache-hot); thieves
// take from the top. Capacity is sized to the total task count: a task is in
// at most one queue at a time (the kQueued state is that exclusivity), so
// the buffer can never overflow and never needs to grow. Orderings are the
// seq_cst variant of the deque (no standalone fences — TSan does not model
// them) with release/acquire slot handoff.
class TaskDeque {
 public:
  explicit TaskDeque(size_t capacity);

  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  void Push(NodeTask* task);  // owner only
  NodeTask* Pop();            // owner only
  NodeTask* Steal();          // any thief
  bool LooksEmpty() const;    // racy probe for the park re-check

 private:
  const uint64_t mask_;
  std::unique_ptr<std::atomic<NodeTask*>[]> slots_;
  alignas(64) std::atomic<int64_t> top_{0};
  alignas(64) std::atomic<int64_t> bottom_{0};
};

}  // namespace scheduler_internal

// The executor of one Runner's nodes. Lifecycle: AddNode for every node,
// Start (wires edge signals, seeds tasks, launches the workers), Join
// (blocks until every task retired). Thread-safe toward concurrent edge
// signals and Kick from any thread.
class WorkerPool {
 public:
  // Input batches one task quantum may drain before yielding.
  static constexpr size_t kMorselBatches = 32;

  // `workers` shared threads; 0 = one per physical core. Always capped by
  // the shared task count (extra workers would only spin on empty deques).
  explicit WorkerPool(size_t workers);
  // Joins a started pool: its owner aborts the run first (Runner does).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Registers a node under fairness bucket `query` (its topology's index),
  // on a home worker of its own or shared. Build-time only, before Start.
  void AddNode(Node* node, uint32_t query, bool homed);

  // Attaches edge signals, seeds every shared task round-robin into the
  // injector, and launches the shared and home workers. `on_error`
  // receives the first task failure exactly once; it must abort the
  // topologies (which retires every remaining task through the queues'
  // abort-then-drain protocol).
  void Start(std::function<void(std::exception_ptr)> on_error);

  // Blocks until every task retired, stops the workers, detaches signals.
  void Join();

  // Wakes every parked shared worker (teardown aid alongside queue aborts).
  void Kick();

  // Registered tasks, homed and shared.
  size_t task_count() const { return tasks_.size(); }

 private:
  using NodeTask = scheduler_internal::NodeTask;

  struct Worker {
    std::unique_ptr<scheduler_internal::TaskDeque> deque;
    std::thread thread;
    uint64_t victim_seed = 0;
  };

  // Relays one edge's readiness signals into task notifications.
  struct EdgeSignal final : StreamQueue::Signal {
    WorkerPool* pool = nullptr;
    StreamQueue* edge = nullptr;
    NodeTask* consumer = nullptr;  // null: no task consumes the edge
    std::vector<NodeTask*> producers;

    void DataReady() override {
      if (consumer != nullptr) pool->Notify(consumer);
    }
    void RoomFreed() override {
      for (NodeTask* p : producers) pool->Notify(p);
    }
  };

  // Makes `task` runnable if it is not already queued/running-with-notice.
  void Notify(NodeTask* task);
  // Puts a kQueued task where it runs soonest: its home worker, the calling
  // worker's own deque, or the injector from foreign threads.
  void Enqueue(NodeTask* task);
  void InjectorPush(NodeTask* task);
  NodeTask* InjectorPop();
  NodeTask* TrySteal(Worker& self);
  bool AnyWorkVisible() const;
  void WorkerLoop(size_t index);
  void HomeLoop(NodeTask* task);
  void Execute(NodeTask* task);
  void Retire(NodeTask* task);
  void Fail(std::exception_ptr error);

  const size_t workers_requested_;
  std::vector<std::unique_ptr<NodeTask>> tasks_;
  std::vector<std::unique_ptr<EdgeSignal>> signals_;
  std::vector<Worker> workers_;
  std::vector<std::thread> homes_;

  // Injector: per-query FIFO buckets served round-robin, so a tenant's
  // runnable backlog advances at the same cadence regardless of how hot its
  // neighbors are.
  std::mutex inject_mu_;
  std::vector<std::deque<NodeTask*>> inject_buckets_;
  size_t inject_cursor_ = 0;
  std::atomic<size_t> inject_size_{0};

  scheduler_internal::EventCount ec_;
  std::atomic<size_t> live_tasks_{0};
  std::atomic<bool> done_{false};
  std::atomic<bool> failed_{false};
  std::function<void(std::exception_ptr)> on_error_;
  bool started_ = false;
};

}  // namespace genealog

#endif  // GENEALOG_SPE_SCHEDULER_H_
