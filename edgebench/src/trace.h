// Span recording for the traced benchmark run.
//
// A span covers one call from the benchmark into a layer of the engine
// (building a query, running it, a lineage request, a codec replay). Spans
// are kept in memory and written out once, when the benchmark ends, so
// recording costs one clock read and one vector append per span. A span's
// parent is the innermost span open on the same thread, or an explicit span
// for work a helper thread does on behalf of another; spans of one
// repetition share a run id.
//
// Self time is a span's duration minus the part of it its children cover
// (children on other threads are clipped to the parent and their overlaps
// merged), summed per span name.
#ifndef EDGEBENCH_TRACE_H_
#define EDGEBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace edgebench {

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list; -1 = root
  int run_id = 0;
};

class Tracer {
 public:
  // A disabled tracer records nothing; every Scope is a no-op.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII span. `name` must be a string literal (stored by pointer).
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    // Index of this span, to parent spans opened on other threads.
    int64_t index() const { return index_; }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int64_t index, int64_t saved_parent)
        : tracer_(tracer), index_(index), saved_parent_(saved_parent) {}
    Tracer* tracer_;
    int64_t index_;
    int64_t saved_parent_;
  };

  // Opens a span under the innermost span open on this thread, or under
  // `parent` when given (>= 0).
  Scope Open(const char* name, int64_t parent = -1);

  bool enabled() const { return enabled_; }
  void set_run_id(int run_id) { run_id_ = run_id; }

  // Self time in milliseconds, summed per span name.
  std::map<std::string, double> SelfMs() const;

  // Writes every span as one JSON object per line; returns false on I/O
  // failure. Spans still open are written with end_ns = 0.
  bool Write(const std::string& path) const;

  size_t size() const;
  uint64_t dropped() const;

 private:
  // Bound on retained spans; later spans are counted, not kept.
  static constexpr size_t kMaxSpans = 1 << 20;

  void Close(int64_t index);

  const bool enabled_;
  int run_id_ = 0;
  mutable std::mutex mu_;  // guards spans_ and dropped_
  std::vector<SpanRecord> spans_;
  uint64_t dropped_ = 0;
};

// Sum of the lengths of the union of [start, end) intervals, each clipped to
// [lo, hi). Exposed for tests.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi);

}  // namespace edgebench

#endif  // EDGEBENCH_TRACE_H_
