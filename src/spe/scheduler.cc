#include "spe/scheduler.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "common/cpu_topology.h"
#include "common/memory_accounting.h"

namespace genealog {

namespace scheduler_internal {

namespace {

// Identifies the shared worker executing on this thread, so Enqueue can
// prefer the local deque. Pool identity is checked (tests run several pools
// in one process; a home worker has no deque).
struct CurrentWorker {
  const void* pool = nullptr;
  TaskDeque* deque = nullptr;
};
thread_local CurrentWorker t_current_worker;

size_t PowerOfTwoAtLeast(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TaskDeque::TaskDeque(size_t capacity)
    : mask_(PowerOfTwoAtLeast(capacity < 2 ? 2 : capacity) - 1),
      slots_(new std::atomic<NodeTask*>[mask_ + 1]) {
  for (uint64_t i = 0; i <= mask_; ++i) {
    slots_[i].store(nullptr, std::memory_order_relaxed);
  }
}

void TaskDeque::Push(NodeTask* task) {
  const int64_t b = bottom_.load(std::memory_order_relaxed);
  assert(b - top_.load(std::memory_order_acquire) <=
             static_cast<int64_t>(mask_) &&
         "TaskDeque overflow: capacity must cover every task");
  slots_[static_cast<uint64_t>(b) & mask_].store(task,
                                                 std::memory_order_release);
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

NodeTask* TaskDeque::Pop() {
  const int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_seq_cst);
  int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Empty; restore.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return nullptr;
  }
  NodeTask* task = slots_[static_cast<uint64_t>(b) & mask_].load(
      std::memory_order_acquire);
  if (t == b) {
    // Last element: race thieves for it through top_.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      task = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }
  return task;
}

NodeTask* TaskDeque::Steal() {
  int64_t t = top_.load(std::memory_order_seq_cst);
  const int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  NodeTask* task =
      slots_[static_cast<uint64_t>(t) & mask_].load(std::memory_order_acquire);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    return nullptr;  // lost to the owner or another thief
  }
  return task;
}

bool TaskDeque::LooksEmpty() const {
  return top_.load(std::memory_order_seq_cst) >=
         bottom_.load(std::memory_order_seq_cst);
}

void EventCount::Notify(bool all) {
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) == 0) return;
  {
    // The empty critical section orders against a waiter between its parked_
    // increment and its sleep (it holds mu_ for the epoch re-check).
    std::lock_guard<std::mutex> lock(mu_);
  }
  if (all) {
    cv_.notify_all();
  } else {
    cv_.notify_one();
  }
}

void EventCount::Wait(uint64_t epoch) {
  parked_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return epoch_.load(std::memory_order_seq_cst) != epoch;
    });
  }
  parked_.fetch_sub(1, std::memory_order_seq_cst);
}

}  // namespace scheduler_internal

using scheduler_internal::NodeTask;
using scheduler_internal::t_current_worker;

WorkerPool::WorkerPool(size_t workers) : workers_requested_(workers) {}

WorkerPool::~WorkerPool() { Join(); }

void WorkerPool::AddNode(Node* node, uint32_t query, bool homed) {
  assert(!started_ && "AddNode after Start");
  auto task = std::make_unique<NodeTask>();
  task->node = node;
  task->query = query;
  if (homed) task->home = std::make_unique<scheduler_internal::EventCount>();
  if (query >= inject_buckets_.size()) inject_buckets_.resize(query + 1);
  tasks_.push_back(std::move(task));
}

void WorkerPool::Start(std::function<void(std::exception_ptr)> on_error) {
  assert(!started_ && "Start called twice");
  started_ = true;
  on_error_ = std::move(on_error);

  // Wire the edge signals: the consumer side from each task's input queue,
  // the producer side from each task's output endpoints. Pushes and pops by
  // any worker, shared or home, fire through them, so readiness crosses
  // placements in both directions.
  std::unordered_map<StreamQueue*, EdgeSignal*> by_edge;
  auto signal_for = [&](StreamQueue* edge) -> EdgeSignal* {
    auto it = by_edge.find(edge);
    if (it != by_edge.end()) return it->second;
    auto signal = std::make_unique<EdgeSignal>();
    signal->pool = this;
    signal->edge = edge;
    EdgeSignal* raw = signal.get();
    signals_.push_back(std::move(signal));
    by_edge.emplace(edge, raw);
    return raw;
  };
  for (auto& task : tasks_) {
    if (StreamQueue* in = task->node->input_queue()) {
      signal_for(in)->consumer = task.get();
    }
    task->node->ForEachOutputQueue([&](StreamQueue* out) {
      signal_for(out)->producers.push_back(task.get());
    });
  }
  for (auto& signal : signals_) signal->edge->set_signal(signal.get());

  live_tasks_.store(tasks_.size(), std::memory_order_seq_cst);
  if (tasks_.empty()) {
    done_.store(true, std::memory_order_seq_cst);
    return;
  }

  // Seed every task: a homed one runs from its worker's first look, shared
  // ones go through the injector, whose round-robin service order makes the
  // very first quanta fair across queries.
  size_t shared = 0;
  for (auto& task : tasks_) {
    task->state.store(NodeTask::kQueued, std::memory_order_seq_cst);
    if (task->home == nullptr) {
      InjectorPush(task.get());
      ++shared;
    }
  }

  size_t n = 0;
  if (shared > 0) {
    // Physical cores in this thread's CPU mask, which the workers inherit,
    // not hardware threads: compute-bound workers on SMT siblings fight over
    // the same execution units (common/cpu_topology.h).
    n = workers_requested_ == 0 ? DefaultWorkerCount() : workers_requested_;
    n = std::min(n, shared);
  }
  workers_.resize(n);
  const size_t deque_capacity =
      scheduler_internal::PowerOfTwoAtLeast(shared + 1);
  for (size_t i = 0; i < n; ++i) {
    workers_[i].deque =
        std::make_unique<scheduler_internal::TaskDeque>(deque_capacity);
    workers_[i].victim_seed = 0x9e3779b97f4a7c15ull * (i + 1);
  }
  for (size_t i = 0; i < n; ++i) {
    workers_[i].thread = std::thread([this, i] { WorkerLoop(i); });
  }
  for (auto& task : tasks_) {
    if (task->home != nullptr) {
      homes_.emplace_back([this, t = task.get()] { HomeLoop(t); });
    }
  }
}

void WorkerPool::Join() {
  if (!started_) return;
  for (Worker& w : workers_) {
    if (w.thread.joinable()) w.thread.join();
  }
  for (std::thread& home : homes_) home.join();
  homes_.clear();
  for (auto& signal : signals_) signal->edge->set_signal(nullptr);
  started_ = false;
}

void WorkerPool::Kick() { ec_.Notify(/*all=*/true); }

void WorkerPool::Notify(NodeTask* task) {
  for (;;) {
    uint32_t state = task->state.load(std::memory_order_seq_cst);
    switch (state) {
      case NodeTask::kQueued:
      case NodeTask::kNotified:
      case NodeTask::kFinished:
        return;  // already armed (or gone)
      case NodeTask::kIdle:
        if (task->state.compare_exchange_weak(state, NodeTask::kQueued,
                                              std::memory_order_seq_cst,
                                              std::memory_order_seq_cst)) {
          Enqueue(task);
          return;
        }
        break;
      case NodeTask::kRunning:
        if (task->state.compare_exchange_weak(state, NodeTask::kNotified,
                                              std::memory_order_seq_cst,
                                              std::memory_order_seq_cst)) {
          return;  // the executing worker re-enqueues after its quantum
        }
        break;
      default:
        return;
    }
  }
}

void WorkerPool::Enqueue(NodeTask* task) {
  if (task->home != nullptr) {
    task->home->Notify();
    return;
  }
  const auto& current = t_current_worker;
  if (current.pool == this) {
    current.deque->Push(task);
  } else {
    InjectorPush(task);
  }
  ec_.Notify();
}

void WorkerPool::InjectorPush(NodeTask* task) {
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    inject_buckets_[task->query].push_back(task);
  }
  inject_size_.fetch_add(1, std::memory_order_seq_cst);
}

NodeTask* WorkerPool::InjectorPop() {
  if (inject_size_.load(std::memory_order_seq_cst) == 0) return nullptr;
  std::lock_guard<std::mutex> lock(inject_mu_);
  const size_t buckets = inject_buckets_.size();
  for (size_t i = 0; i < buckets; ++i) {
    std::deque<NodeTask*>& bucket = inject_buckets_[inject_cursor_];
    inject_cursor_ = (inject_cursor_ + 1) % buckets;
    if (!bucket.empty()) {
      NodeTask* task = bucket.front();
      bucket.pop_front();
      inject_size_.fetch_sub(1, std::memory_order_seq_cst);
      return task;
    }
  }
  return nullptr;
}

NodeTask* WorkerPool::TrySteal(Worker& self) {
  const size_t n = workers_.size();
  if (n <= 1) return nullptr;
  // xorshift-ish victim start so thieves spread out.
  self.victim_seed ^= self.victim_seed << 13;
  self.victim_seed ^= self.victim_seed >> 7;
  self.victim_seed ^= self.victim_seed << 17;
  const size_t start = static_cast<size_t>(self.victim_seed % n);
  for (size_t i = 0; i < n; ++i) {
    Worker& victim = workers_[(start + i) % n];
    if (&victim == &self) continue;
    if (NodeTask* task = victim.deque->Steal()) return task;
  }
  return nullptr;
}

bool WorkerPool::AnyWorkVisible() const {
  if (inject_size_.load(std::memory_order_seq_cst) > 0) return true;
  for (const Worker& w : workers_) {
    if (!w.deque->LooksEmpty()) return true;
  }
  return false;
}

void WorkerPool::WorkerLoop(size_t index) {
  Worker& self = workers_[index];
  t_current_worker = {this, self.deque.get()};
  while (!done_.load(std::memory_order_seq_cst)) {
    NodeTask* task = self.deque->Pop();
    if (task == nullptr) task = InjectorPop();
    if (task == nullptr) task = TrySteal(self);
    if (task != nullptr) {
      Execute(task);
      continue;
    }
    // Park. The epoch is read before the re-check: an enqueue after the read
    // moves the epoch (Wait returns immediately); an enqueue before the read
    // is visible to the re-check through the seq_cst epoch bump.
    const uint64_t epoch = ec_.Epoch();
    if (done_.load(std::memory_order_seq_cst) || AnyWorkVisible()) continue;
    ec_.Wait(epoch);
  }
  t_current_worker = {};
}

void WorkerPool::HomeLoop(NodeTask* task) {
  for (;;) {
    // The epoch is read before the state: a Notify that re-arms the task
    // after the read moves the epoch, so Wait returns at once.
    const uint64_t epoch = task->home->Epoch();
    switch (task->state.load(std::memory_order_seq_cst)) {
      case NodeTask::kFinished:
        return;
      case NodeTask::kQueued:
        Execute(task);
        break;
      default:
        task->home->Wait(epoch);
    }
  }
}

void WorkerPool::Execute(NodeTask* task) {
  task->state.store(NodeTask::kRunning, std::memory_order_seq_cst);
  mem::SetCurrentInstance(task->node->instance_id());
  StepResult result = StepResult::kIdle;
  bool output_blocked = false;
  try {
    if (!task->node->DrainSpills()) {
      // Still output-blocked: the failed re-offer marked producer-waiting,
      // so the consumer's next pop fires RoomFreed at this task.
      output_blocked = true;
    } else if (task->stream_done) {
      result = StepResult::kDone;
    } else {
      result = task->node->Step(kMorselBatches);
      if (result == StepResult::kDone) task->stream_done = true;
      if (task->node->HasSpills()) {
        // The quantum emitted into a full edge. Hold the task (no matter
        // what Step reported) until RoomFreed lets the spill drain — this is
        // the pool's back-pressure: the morsel bounds the spill, the spill
        // gates the task.
        output_blocked = true;
      }
    }
  } catch (...) {
    Fail(std::current_exception());
    // A throwing node is done. The failure handler aborts every queue,
    // which unwinds the rest of the graph; this task just retires (its
    // spills are dropped with the aborted queues).
    Retire(task);
    return;
  }

  if (result == StepResult::kDone && !output_blocked) {
    Retire(task);
    return;
  }
  if (result == StepResult::kReady && !output_blocked) {
    // Budget exhausted with input left. A home worker just steps again; a
    // shared task rotates through the fair injector so siblings of every
    // query get their turn before it runs again.
    task->state.store(NodeTask::kQueued, std::memory_order_seq_cst);
    if (task->home == nullptr) {
      InjectorPush(task);
      ec_.Notify();
    }
    return;
  }
  // Idle (or output-blocked): park until an edge signal — unless one
  // already fired during the quantum.
  uint32_t expected = NodeTask::kRunning;
  if (task->state.compare_exchange_strong(expected, NodeTask::kIdle,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst)) {
    return;
  }
  // kNotified: data or room arrived mid-quantum; go around again.
  task->state.store(NodeTask::kQueued, std::memory_order_seq_cst);
  if (task->home == nullptr) Enqueue(task);
}

void WorkerPool::Retire(NodeTask* task) {
  task->state.store(NodeTask::kFinished, std::memory_order_seq_cst);
  if (live_tasks_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    done_.store(true, std::memory_order_seq_cst);
    ec_.Notify(/*all=*/true);
  }
}

void WorkerPool::Fail(std::exception_ptr error) {
  if (failed_.exchange(true, std::memory_order_seq_cst)) return;
  if (on_error_) on_error_(error);
}

}  // namespace genealog
