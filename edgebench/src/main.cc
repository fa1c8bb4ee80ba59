// edgebench — the repository benchmark for GeneaLog edge provenance.
//
//   edgebench --workload <lr-intra|sg-dist|console|fleet> --seed <n>
//             --seconds <s> --trace <0|1> [--scratch <dir>]
//   edgebench --list-metrics
//
// Prints a human-readable report (every metric by name with its unit, sample
// counts beside percentiles, the build and engine fingerprint), then, as the
// last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run also writes its spans to
// <scratch>/spans-<workload>-<seed>.jsonl.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace edgebench {
namespace {

#ifndef EDGEBENCH_BUILD_TYPE
#define EDGEBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__)
constexpr const char* kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr const char* kSanitizer = "address";
#elif __has_feature(thread_sanitizer)
constexpr const char* kSanitizer = "thread";
#else
constexpr const char* kSanitizer = "none";
#endif
#else
constexpr const char* kSanitizer = "none";
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

bool Comparable() { return kOptimized && std::strcmp(kSanitizer, "none") == 0; }

std::string Fingerprint(const std::string& engine_json) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int allowed =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %d, \"hardware_threads\": %u, \"compiler\": "
                "\"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
                "\"sanitizer\": \"%s\", \"comparable\": %s, \"engine\": ",
                allowed, std::thread::hardware_concurrency(), kCompiler,
                EDGEBENCH_BUILD_TYPE, kOptimized ? "true" : "false",
                kSanitizer, Comparable() ? "true" : "false");
  return buf + engine_json + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "edgebench: %s\n"
               "usage: edgebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scratch <dir>]\n"
               "       edgebench --list-metrics\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::printf("%s", CatalogueJson().c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      options.trace = std::strtol(value, &end, 10) != 0;
    } else if (arg == "--scratch") {
      options.scratch_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(("malformed value for " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(options.scratch_dir);

  Tracer tracer(options.trace);
  WorkloadResult result;
  try {
    result = RunWorkload(options, tracer);
  } catch (const std::invalid_argument& e) {
    return Usage(e.what());
  }

  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  const auto& wanted = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (options.trace) {
    for (const MetricSpec& m : wanted) {
      const auto it = result.metrics.find(m.name);
      if (it == result.metrics.end()) {
        std::printf("%-44s absent\n", m.name.c_str());
      } else {
        std::printf("%-44s %.6g %s\n", m.name.c_str(), it->second,
                    m.unit.c_str());
      }
    }
    const std::string spans = options.scratch_dir + "/spans-" +
                              options.workload + "-" +
                              std::to_string(options.seed) + ".jsonl";
    if (tracer.Write(spans)) {
      std::printf("spans: %zu written to %s (%llu dropped)\n", tracer.size(),
                  spans.c_str(),
                  static_cast<unsigned long long>(tracer.dropped()));
    } else {
      std::fprintf(stderr, "edgebench: cannot write %s\n", spans.c_str());
    }
  }
  std::printf("fingerprint: %s\n", Fingerprint(result.engine_json).c_str());
  if (!Comparable()) {
    std::printf("NOT COMPARABLE: built without optimisation or with a "
                "sanitizer; do not compare these figures\n");
  }

  std::string metrics;
  for (const MetricSpec& m : wanted) {
    const auto it = result.metrics.find(m.name);
    if (it == result.metrics.end() || !std::isfinite(it->second)) continue;
    char item[256];
    std::snprintf(item, sizeof(item), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), it->second,
                  m.unit.c_str());
    metrics += item;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace edgebench

int main(int argc, char** argv) {
  try {
    return edgebench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "edgebench: %s\n", e.what());
    return 1;
  }
}
