#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"

namespace edgebench {

namespace {

// 1-based nearest-rank position of `pct` among n samples. The epsilon keeps
// exact products such as 99% of 1000 from rounding up to the next rank.
size_t NearestRank(size_t n, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  return std::max<size_t>(static_cast<size_t>(std::ceil(exact - 1e-9)), 1);
}

}  // namespace

bool PercentileSupported(size_t n, double pct) {
  if (n == 0 || pct < 0 || pct > 100) return false;
  return n - NearestRank(n, pct) >= kMinBeyond;
}

std::optional<double> HighestSupportedPercentile(size_t n) {
  std::optional<double> best;
  for (double pct : kPercentileLadder) {
    if (PercentileSupported(n, pct)) best = pct;
  }
  return best;
}

std::optional<double> Percentile(const std::vector<double>& samples,
                                 double pct) {
  if (!PercentileSupported(samples.size(), pct)) return std::nullopt;
  return genealog::Percentile(samples, pct);
}

std::optional<double> Median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::optional<std::array<double, 3>> Quartiles(std::vector<double> values) {
  const size_t n = values.size();
  if (n < 2) return std::nullopt;
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, and for i = 1..3
  // j = floor(i*m/4) clamped to [1, n-1], delta = i*m - 4j, and
  // q_i = (x[j-1]*(4-delta) + x[j]*delta) / 4.
  std::array<double, 3> q{};
  const auto len = static_cast<int64_t>(n);
  const int64_t m = len + 1;
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, len - 1);
    const int64_t delta = i * m - j * 4;
    q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
  }
  return q;
}

double SourceLagMs(int64_t elapsed_ns, uint64_t emitted, double rate_tps) {
  if (rate_tps <= 0 || elapsed_ns <= 0) return 0;
  const double due = static_cast<double>(elapsed_ns) / 1e9 * rate_tps;
  const double behind = due - static_cast<double>(emitted);
  return behind > 0 ? behind / rate_tps * 1e3 : 0;
}

}  // namespace edgebench
