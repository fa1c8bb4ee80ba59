#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common/wall_clock.h"

namespace edgebench {

namespace {

// Innermost open span per thread. One tracer is live per process, so a
// single thread-local slot suffices.
thread_local int64_t tls_current = -1;

}  // namespace

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->Close(index_);
  tls_current = saved_parent_;
}

Tracer::Scope Tracer::Open(const char* name, int64_t parent) {
  if (!enabled_) return Scope(nullptr, -1, -1);
  SpanRecord span;
  span.name = name;
  span.parent = parent >= 0 ? parent : tls_current;
  span.run_id = run_id_;
  span.start_ns = genealog::NowNanos();
  int64_t index = -1;
  {
    std::lock_guard lock(mu_);
    if (spans_.size() < kMaxSpans) {
      index = static_cast<int64_t>(spans_.size());
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  const int64_t saved = tls_current;
  if (index >= 0) tls_current = index;
  return Scope(index >= 0 ? this : nullptr, index, saved);
}

void Tracer::Close(int64_t index) {
  const int64_t now = genealog::NowNanos();
  std::lock_guard lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  for (auto& [s, e] : intervals) {
    s = std::clamp(s, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_s = 0;
  int64_t cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) covered += cur_e - cur_s;
  return covered;
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::lock_guard lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && s.end_ns > 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns <= 0) continue;
    const int64_t own = s.end_ns - s.start_ns -
                        CoveredNs(std::move(children[i]), s.start_ns, s.end_ns);
    self[s.name] += static_cast<double>(own) / 1e6;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"run\": %d}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent), s.run_id);
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

uint64_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

}  // namespace edgebench
