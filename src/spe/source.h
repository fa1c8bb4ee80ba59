// Source operators (§2): create the source tuples fed to the query.
//
// Sources stamp each tuple with kind=SOURCE, a unique id and the wall-clock
// stimulus used for the latency metric, and interleave watermarks so
// downstream merges can make progress. VectorSource replays a pre-generated
// sorted dataset — the benches use it so data generation never bottlenecks a
// measurement — with optional rate limiting and early stop.
#ifndef GENEALOG_SPE_SOURCE_H_
#define GENEALOG_SPE_SOURCE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/wall_clock.h"
#include "spe/node.h"

namespace genealog {

struct SourceOptions {
  // Maximum emission rate in tuples/second; 0 = unthrottled.
  double max_rate_tps = 0;
  // Cooperative early-stop flag polled between tuples (bench timeouts).
  std::atomic<bool>* stop = nullptr;
  // Replay the dataset this many times, shifting ts by `replay_ts_shift` each
  // lap, to extend run length without regenerating data.
  int replays = 1;
  int64_t replay_ts_shift = 0;
};

// Common probe interface so harnesses can compute throughput without knowing
// the payload type.
class SourceNodeBase : public Node {
 public:
  using Node::Node;
  // Wall-clock span of the emission loop; 0 if not tracked.
  virtual int64_t active_ns() const { return 0; }
};

template <typename T>
class VectorSourceNode final : public SourceNodeBase {
 public:
  using Dataset = std::vector<IntrusivePtr<T>>;

  // Replays `data` without copying it: the node reads the shared vector
  // and clones each element it emits, so several sources (of concurrent
  // queries, too) may replay one dataset.
  VectorSourceNode(std::string name, std::shared_ptr<const Dataset> data,
                   SourceOptions options = {})
      : SourceNodeBase(std::move(name)),
        data_(std::move(data)),
        options_(options) {}
  VectorSourceNode(std::string name, Dataset data, SourceOptions options = {})
      : VectorSourceNode(std::move(name),
                         std::make_shared<const Dataset>(std::move(data)),
                         options) {}

  // Wall-clock span of the emission loop, for throughput computation.
  int64_t active_ns() const override {
    return end_ns_.load(std::memory_order_relaxed) -
           start_ns_.load(std::memory_order_relaxed);
  }

  // Rate-limited sources spin/sleep on the pacing clock — an external wait
  // a shared worker must not absorb — so they keep a home worker.
  // Unthrottled sources are re-armable tasks.
  bool NeedsDedicatedThread() const override {
    return options_.max_rate_tps > 0;
  }

  // The emission loop as a resumable step: emits up to max_batches chunks'
  // worth of tuples (paced: max_batches tuples), then yields kReady. Shared
  // sources re-arm through the fair injector, so one hot source cannot
  // starve other queries. A tuple whose emission spilled ends the step
  // before the next one is paced or made, and the executor holds this task
  // until the consumer frees room, which is what bounds a source's memory
  // footprint.
  StepResult Step(size_t max_batches) override {
    if (!started_) Start();
    const Dataset& data = *data_;
    if (data.empty()) return Finish();
    const size_t budget =
        max_batches > std::numeric_limits<size_t>::max() / stimulus_every_
            ? std::numeric_limits<size_t>::max()
            : max_batches * stimulus_every_;
    for (size_t n = 0; n < budget && !HasSpills(); ++n) {
      if (lap_ >= options_.replays) return Finish();
      if (options_.stop != nullptr &&
          options_.stop->load(std::memory_order_relaxed)) {
        return Finish();
      }
      if (options_.max_rate_tps > 0) Pace();
      const int64_t ts_shift =
          static_cast<int64_t>(lap_) * options_.replay_ts_shift;
      // Sources may replay shared datasets; each emission is a fresh tuple
      // object so provenance graphs and instance attribution stay exact.
      // T is known statically, so this is the same-class clone fast path
      // by construction — no virtual dispatch.
      TuplePtr t = MakeTuple<T>(*data[index_]);
      t->ts = data[index_]->ts + ts_shift;
      t->id = NextTupleId();
      if (stimulus_every_ == 1 || emitted_ % stimulus_every_ == 0) {
        stimulus_ = NowNanos();
      }
      t->stimulus = stimulus_;
      InstrumentSource(mode(), *t);
      CountProcessed();
      ++emitted_;
      const int64_t ts = t->ts;
      if (!EmitTupleAll(std::move(t))) return Finish();
      // Watermark: future tuples have ts >= this tuple's ts; if the next
      // tuple is strictly later we can promise its ts already.
      int64_t wm = ts;
      if (index_ + 1 < data.size()) {
        const int64_t next_ts = data[index_ + 1]->ts + ts_shift;
        if (next_ts > ts) wm = next_ts;
      } else if (lap_ + 1 < options_.replays) {
        const int64_t next_ts =
            data[0]->ts + ts_shift + options_.replay_ts_shift;
        if (next_ts > ts) wm = next_ts;
      }
      if (!ForwardWatermark(wm)) return Finish();
      if (++index_ >= data.size()) {
        index_ = 0;
        ++lap_;
      }
    }
    return StepResult::kReady;
  }

 private:
  void Start() {
    started_ = true;
    start_ns_.store(NowNanos(), std::memory_order_relaxed);
    // Stimulus granularity: at full speed the wall-clock read is a real
    // per-tuple cost, so it is refreshed once per outgoing chunk (the
    // smallest output batch size). Rate-limited runs — the latency
    // measurements — keep the exact per-tuple stimulus, and so does batch
    // size 1.
    if (options_.max_rate_tps > 0 || outputs_.empty()) return;
    stimulus_every_ = outputs_[0].batch_size();
    for (const Endpoint& e : outputs_) {
      stimulus_every_ = std::min(stimulus_every_, e.batch_size());
    }
  }

  // Waits until the next tuple is due on the max_rate_tps schedule.
  void Pace() const {
    const int64_t due =
        start_ns_.load(std::memory_order_relaxed) +
        static_cast<int64_t>(1e9 / options_.max_rate_tps *
                             static_cast<double>(emitted_));
    while (NowNanos() < due) {
      // Sub-millisecond sleeps overshoot badly; spin for short waits.
      if (due - NowNanos() > 2'000'000) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  StepResult Finish() {
    end_ns_.store(NowNanos(), std::memory_order_relaxed);
    EmitFlushAll();
    return StepResult::kDone;
  }

  std::shared_ptr<const Dataset> data_;
  SourceOptions options_;
  std::atomic<int64_t> start_ns_{0};
  std::atomic<int64_t> end_ns_{0};
  // Emission cursor (touched only by the executing worker; a shared task's
  // state machine hands the node from worker to worker with
  // release/acquire).
  bool started_ = false;
  int lap_ = 0;
  size_t index_ = 0;
  uint64_t emitted_ = 0;
  size_t stimulus_every_ = 1;
  int64_t stimulus_ = 0;
};

// Callback-driven source for tests and examples: `gen` returns tuples in
// timestamp order and null when exhausted.
template <typename T>
class CallbackSourceNode final : public SourceNodeBase {
 public:
  using Generator = std::function<IntrusivePtr<T>()>;

  CallbackSourceNode(std::string name, Generator gen)
      : SourceNodeBase(std::move(name)), gen_(std::move(gen)) {}

  StepResult Step(size_t max_batches) override {
    for (size_t i = 0; i < max_batches && !HasSpills(); ++i) {
      IntrusivePtr<T> t = gen_();
      if (t == nullptr) {
        EmitFlushAll();
        return StepResult::kDone;
      }
      t->id = NextTupleId();
      t->stimulus = NowNanos();
      InstrumentSource(mode(), *t);
      const int64_t last_ts = t->ts;
      CountProcessed();
      if (!EmitTupleAll(std::move(t)) || !ForwardWatermark(last_ts)) {
        EmitFlushAll();
        return StepResult::kDone;
      }
    }
    return StepResult::kReady;
  }

 private:
  Generator gen_;
};

}  // namespace genealog

#endif  // GENEALOG_SPE_SOURCE_H_
