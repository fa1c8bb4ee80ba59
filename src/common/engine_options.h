// The engine's data-plane and provenance-plane settings, collected in one
// struct so every layer reads them from one place.
//
// Each setting has one home, EngineOptions. A default-constructed instance
// carries the process-wide defaults, each honoring its GENEALOG_* environment
// variable (parsed strictly by env_knob.h: malformed values throw instead of
// defaulting). The engine reads every setting from the one instance a
// dataflow was built with, handed to each of its SPE instances: the edges
// take their batch size from it, and execution its scheduler and worker
// count. There is no per-edge, per-run or per-call override.
// DataflowOptions derives from EngineOptions (queries::QueryBuildOptions from
// DataflowOptions), and the bench harness records the same instance in
// BENCH_*.json.
//
// | Field            | Env var                  | Default         |
// |------------------|--------------------------|-----------------|
// | batch_size       | GENEALOG_BATCH_SIZE      | kDefaultBatchSize |
// | scheduler        | GENEALOG_SCHEDULER       | thread-per-node |
// | workers          | GENEALOG_WORKERS         | 0 (= cores in the CPU mask) |
// | lineage_store    | GENEALOG_LINEAGE_STORE   | off             |
// | lineage_retain_records | GENEALOG_LINEAGE_RETAIN_RECORDS | 1M (0 = unbounded) |
// | lineage_retain_span    | GENEALOG_LINEAGE_RETAIN_SPAN    | 0 (= no horizon)   |
// | lineage_serve_addr | GENEALOG_LINEAGE_SERVE_ADDR | "" (= no serving) |
// | use_tcp          | —                        | off             |
//
// The provenance writer's buffer size (prov_buffer_bytes, 256 KiB) and the
// wire codec (wire_codec, compact) are constants, not settings.
//
// The data plane and provenance plane have one path each, chosen from what
// the engine observes rather than from a switch: every channel carries
// compact frames, every edge is the same
// StreamQueue, endpoints steer their flush threshold from consumer queue
// depth, tuples come from the recycling pool (oversize blocks from the heap),
// FindProvenance checks visited tuples in its caller's scratch pointer set,
// and a file-backed provenance sink always writes through the background
// AsyncFileWriter.
//
// batch_size is deliberately *not* read from the environment by the default
// constructor: a plain `EngineOptions{}` is the engine default
// (kDefaultBatchSize, with adaptive batching holding idle latency at the
// batch-1 seed level). FromEnv() additionally honors GENEALOG_BATCH_SIZE —
// the bench harness and ad-hoc tools use it so one exported variable sweeps a
// whole binary.
#ifndef GENEALOG_COMMON_ENGINE_OPTIONS_H_
#define GENEALOG_COMMON_ENGINE_OPTIONS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env_knob.h"

namespace genealog {

// Tuples per stream batch on every edge unless EngineOptions::batch_size
// says otherwise.
inline constexpr size_t kDefaultBatchSize = 64;

// Where the one executor (spe/scheduler.h) places operator nodes. Every
// node is a re-armable task woken by batch arrival and stepped by
// WorkerPool::Execute either way; the mode only picks placement:
//  * kThreadPerNode — every node gets a home worker of its own (the Liebre
//    model the paper inherits: one thread per operator; the fallback mode);
//  * kPool — nodes share GENEALOG_WORKERS workers with work stealing and
//    per-query round-robin fairness; nodes that block on non-queue
//    resources (Node::NeedsDedicatedThread) keep a home worker.
enum class SchedulerMode : uint8_t { kThreadPerNode, kPool };

// Frame encoding for batches on inter-instance byte channels (net/frame.h):
//  * kCompact — what the engine puts on every channel: delta/zigzag/varint
//    tuple ids and timestamps, per-channel dictionaries for node uids and
//    tuple type descriptors, and structural coding of unfolded (U) tuples;
//  * kRaw — one fixed-width serialized tuple after another, kept only as
//    FrameEncoder's reference codec for tests and the codec bench.
enum class WireCodec : uint8_t { kRaw = 0, kCompact = 1 };

// The enum-valued knobs, parsed like the boolean and count knobs in
// env_knob.h: unset or empty keeps `fallback`, any other spelling throws
// std::invalid_argument.
inline SchedulerMode ParseSchedulerKnob(const char* name, const char* value,
                                        SchedulerMode fallback) {
  if (KnobUnset(value)) return fallback;
  if (std::strcmp(value, "pool") == 0) return SchedulerMode::kPool;
  if (std::strcmp(value, "thread-per-node") == 0) {
    return SchedulerMode::kThreadPerNode;
  }
  RejectKnob(name, value, "pool or thread-per-node");
}

namespace engine_defaults {

// Each helper reads its environment variable once per process and caches the
// result, so defaults cannot drift mid-run when a test mutates the
// environment. A malformed value throws std::invalid_argument from the first
// read (see env_knob.h).
// 0 clamps to 1 (item-at-a-time handover).
inline size_t BatchSize() {
  static const size_t v = static_cast<size_t>(std::max<int64_t>(
      1, EnvCountKnob("GENEALOG_BATCH_SIZE",
                      static_cast<int64_t>(kDefaultBatchSize))));
  return v;
}
inline SchedulerMode Scheduler() {
  static const SchedulerMode v = ParseSchedulerKnob(
      "GENEALOG_SCHEDULER", std::getenv("GENEALOG_SCHEDULER"),
      SchedulerMode::kThreadPerNode);
  return v;
}
inline size_t Workers() {
  static const size_t v =
      static_cast<size_t>(EnvCountKnob("GENEALOG_WORKERS", 0));
  return v;
}
// The lineage store is the one opt-in knob: it buys a live query surface at
// the price of retaining records in memory, so it must cost nothing unless
// asked for (GENEALOG_LINEAGE_STORE unset/0 == off).
inline bool LineageStore() {
  static const bool v = EnvBoolKnob("GENEALOG_LINEAGE_STORE", false);
  return v;
}
inline size_t LineageRetainRecords() {
  static const size_t v = static_cast<size_t>(
      EnvCountKnob("GENEALOG_LINEAGE_RETAIN_RECORDS", int64_t{1} << 20));
  return v;
}
inline int64_t LineageRetainSpan() {
  static const int64_t v = EnvCountKnob("GENEALOG_LINEAGE_RETAIN_SPAN", 0);
  return v;
}
inline std::string LineageServeAddr() {
  static const std::string v = [] {
    const char* s = std::getenv("GENEALOG_LINEAGE_SERVE_ADDR");
    return std::string(s != nullptr ? s : "");
  }();
  return v;
}
}  // namespace engine_defaults

struct EngineOptions {
  // Stream batch size for every edge (1 = item-at-a-time handover, the seed
  // data plane; kDefaultBatchSize = the production default, >2x throughput
  // with adaptive batching keeping idle latency at the seed level; 0 clamps
  // to 1).
  size_t batch_size = kDefaultBatchSize;
  // Not a setting; edgebench's EngineJson reads it. False: every edge is a
  // mutex StreamQueue.
  static constexpr bool spsc_edges = false;
  // Not a setting; edgebench's EngineJson reads it.
  static constexpr bool adaptive_batch = true;
  // Not a setting; edgebench's EngineJson reads it.
  static constexpr bool async_prov_sink = true;
  // Not a setting; edgebench's EngineJson reads it. Swap threshold of the
  // provenance file writer's buffers.
  static constexpr size_t prov_buffer_bytes = 256 * 1024;
  // Placement: a home worker per task (thread-per-node, the fallback) or
  // shared pool workers; the pool placement applies only when every SPE
  // instance in one run asks for it. Sink/provenance output is byte
  // identical across placements (the scheduler sweeps in the determinism
  // suites pin this); sharing is what lets thousands of queries run on a
  // few cores.
  SchedulerMode scheduler = engine_defaults::Scheduler();
  // Worker threads for the pool scheduler; 0 = one per physical core in the
  // CPU affinity mask (common/cpu_topology.h; capped by the task count); a
  // run over several SPE instances takes the largest count. Ignored under
  // thread-per-node, which has no shared workers.
  size_t workers = engine_defaults::Workers();
  // Maintain a live in-memory lineage index (genealog/lineage_store.h) fed by
  // the provenance consumer, queryable through LineageQuery while the
  // topology runs. Off by default: when false no store exists and the emit
  // path pays only a null-pointer check. GL only: Dataflow::Build rejects
  // it, and lineage_serve_addr, under NP and BL.
  bool lineage_store = engine_defaults::LineageStore();
  // Lineage retention: evict whole epochs once more than this many records
  // are retained (0 = unbounded) ...
  size_t lineage_retain_records = engine_defaults::LineageRetainRecords();
  // ... and/or once an epoch's newest derived event-time falls more than this
  // many time units behind the newest ingested record (0 = no horizon).
  int64_t lineage_retain_span = engine_defaults::LineageRetainSpan();
  // When non-empty ("host:port"; port 0 = ephemeral) the built query keeps
  // a lineage store (as if lineage_store were on) and additionally starts a
  // LineageService (genealog/lineage_service.h) answering LineageQuery over
  // TCP while (and after) the topology runs. Empty = no serving endpoint.
  std::string lineage_serve_addr = engine_defaults::LineageServeAddr();
  // Not a setting; edgebench's EngineJson reads it. Every inter-instance
  // channel carries compact frames (net/frame.h).
  static constexpr WireCodec wire_codec = WireCodec::kCompact;
  // Not a setting; edgebench's EngineJson reads it. False: compact frame
  // bodies ship as encoded, with no block compressor.
  static constexpr bool wire_block_compress = false;
  // Distributed deployments: TCP loopback channels when true, in-memory
  // serializing channels otherwise.
  bool use_tcp = false;
  // Not a setting; edgebench's EngineJson reads it. False: SU and MU are
  // always the fused operators (genealog/instrument.h).
  static constexpr bool composed_unfolders = false;

  // The full environment snapshot: the defaults above plus
  // GENEALOG_BATCH_SIZE applied to batch_size.
  static EngineOptions FromEnv() {
    EngineOptions o;
    o.batch_size = engine_defaults::BatchSize();
    return o;
  }
};

}  // namespace genealog

#endif  // GENEALOG_COMMON_ENGINE_OPTIONS_H_
