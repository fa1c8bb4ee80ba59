// Reporting statistics for the edge-provenance benchmark.
//
// Three rules live here because the benchmark's own tests pin them:
//  * percentile selection: a percentile is reported only when at least
//    kMinBeyond samples lie beyond it, so a short run prints "absent" instead
//    of a number no sample supports;
//  * quartiles: the same "exclusive" method as Python's
//    statistics.quantiles(values, n=4), so in-run medians and the run-to-run
//    spread check agree on what a quartile is;
//  * source lag: how far an open-loop source trails its pacing schedule.
#ifndef EDGEBENCH_STATS_H_
#define EDGEBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace edgebench {

// Samples that must lie strictly beyond a percentile for it to be reported.
inline constexpr size_t kMinBeyond = 10;

// The percentiles the benchmark reports, in ascending order.
inline constexpr std::array<double, 5> kPercentileLadder = {50, 90, 99, 99.9,
                                                             99.99};

// True when n samples leave at least kMinBeyond beyond percentile `pct`.
bool PercentileSupported(size_t n, double pct);

// The highest ladder percentile `n` samples support, or nullopt (n < 20).
std::optional<double> HighestSupportedPercentile(size_t n);

// genealog::Percentile of `samples`, or nullopt when the sample count does
// not support `pct`.
std::optional<double> Percentile(const std::vector<double>& samples,
                                 double pct);

// Median of `values`; nullopt when empty.
std::optional<double> Median(std::vector<double> values);

// First, second and third quartile by the exclusive method of Python's
// statistics.quantiles(values, n=4). Needs at least two values.
std::optional<std::array<double, 3>> Quartiles(std::vector<double> values);

// Milliseconds an open-loop source paced at `rate_tps` trails its schedule
// `elapsed_ns` after the schedule started, having emitted `emitted` tuples.
// Zero when it is on time or ahead.
double SourceLagMs(int64_t elapsed_ns, uint64_t emitted, double rate_tps);

}  // namespace edgebench

#endif  // EDGEBENCH_STATS_H_
