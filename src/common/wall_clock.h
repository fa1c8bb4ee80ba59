// Monotonic wall-clock helpers used for latency stimuli and timing.
#ifndef GENEALOG_COMMON_WALL_CLOCK_H_
#define GENEALOG_COMMON_WALL_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace genealog {

// Nanoseconds on a monotonic clock. Used as the "stimulus" attached to source
// tuples so that sink-side latency equals (now - latest contributing stimulus),
// matching the paper's latency definition (production of sink tuple vs.
// reception of the latest contributing source tuple).
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NanosToMillis(int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

}  // namespace genealog

#endif  // GENEALOG_COMMON_WALL_CLOCK_H_
