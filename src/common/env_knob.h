// Parsing for the GENEALOG_* environment knobs. Each Parse* function is a
// pure function of the knob's name and raw value, so the accepted spellings
// are unit-testable without touching the environment:
//   * unset (nullptr) or empty keeps the default — an empty var passed
//     through by a wrapper script changes nothing;
//   * anything but an accepted spelling throws std::invalid_argument naming
//     the knob and the value — a typo fails loudly instead of silently
//     running the default.
// One definition per knob kind so the knobs can never drift apart; the
// enum-valued knobs (scheduler, wire codec) parse in engine_options.h. The
// bench harness and tools parse their numeric settings and flags through the
// same functions.
#ifndef GENEALOG_COMMON_ENV_KNOB_H_
#define GENEALOG_COMMON_ENV_KNOB_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

namespace genealog {

inline bool KnobUnset(const char* value) {
  return value == nullptr || value[0] == '\0';
}

[[noreturn]] inline void RejectKnob(const char* name, const char* value,
                                    const char* expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + value +
                              "\": expected " + expected);
}

// Boolean knobs (GENEALOG_LINEAGE_STORE): exactly "0" or "1".
inline bool ParseBoolKnob(const char* name, const char* value, bool fallback) {
  if (KnobUnset(value)) return fallback;
  if (std::strcmp(value, "0") == 0) return false;
  if (std::strcmp(value, "1") == 0) return true;
  RejectKnob(name, value, "0 or 1");
}

// Count knobs (GENEALOG_BATCH_SIZE, GENEALOG_WORKERS, retention bounds): a
// non-negative decimal integer that fits an int64_t, digits only.
inline int64_t ParseCountKnob(const char* name, const char* value,
                              int64_t fallback) {
  if (KnobUnset(value)) return fallback;
  const char* end = value + std::strlen(value);
  int64_t n = 0;
  const auto [ptr, ec] = std::from_chars(value, end, n);
  if (ec != std::errc() || ptr != end || n < 0) {
    RejectKnob(name, value, "a non-negative integer");
  }
  return n;
}

// Real-valued settings (GENEALOG_BENCH_SCALE, genealog_query --rate): a
// finite non-negative decimal number ("0.5", "2", "1e3"), nothing else — no
// sign, no surrounding spaces, no trailing characters, no inf/nan.
inline double ParseRealKnob(const char* name, const char* value,
                            double fallback) {
  if (KnobUnset(value)) return fallback;
  const char* end = value + std::strlen(value);
  double x = 0.0;
  const auto [ptr, ec] = std::from_chars(value, end, x);
  if (ec != std::errc() || ptr != end || !std::isfinite(x) || x < 0.0 ||
      value[0] == '-') {
    RejectKnob(name, value, "a non-negative number");
  }
  return x;
}

inline bool EnvBoolKnob(const char* name, bool fallback) {
  return ParseBoolKnob(name, std::getenv(name), fallback);
}

inline int64_t EnvCountKnob(const char* name, int64_t fallback) {
  return ParseCountKnob(name, std::getenv(name), fallback);
}

}  // namespace genealog

#endif  // GENEALOG_COMMON_ENV_KNOB_H_
