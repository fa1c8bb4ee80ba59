// Terminal consumer of a (completely) unfolded delivering stream: groups the
// per-origin tuples back into one record per sink tuple and hands each record
// to a writer (the paper stores provenance on disk; the evaluation notes its
// volume is 0.003%–0.5% of the source data, a ratio the benches also report).
//
// Unfolded tuples of one sink tuple arrive within a bounded event-time
// horizon (the MU join window); a group is finalized once the watermark
// passes derived_ts + finalize_slack, and all groups finalize at flush.
//
// File output is double-buffered and asynchronous (common/async_writer.h):
// records serialize into an in-memory buffer a background thread flushes, so
// disk latency leaves the operator thread — with bounded buffering, and the
// file holding exactly the serialized records in finalization order.
#ifndef GENEALOG_GENEALOG_PROVENANCE_SINK_H_
#define GENEALOG_GENEALOG_PROVENANCE_SINK_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/async_writer.h"
#include "common/engine_options.h"
#include "common/int_math.h"
#include "core/type_registry.h"
#include "genealog/provenance_record.h"
#include "genealog/unfolded.h"
#include "spe/node.h"

namespace genealog {

class LineageStore;

// What a provenance sink does with finalized records. Engine-wide knobs
// (the writer buffer size) live in the embedded
// EngineOptions — one struct, one FromEnv() — so this spec only adds the
// sink-specific wiring: where the file goes, who consumes records in
// process, and which lineage store (if any) indexes them.
struct ProvenanceSinkSpec {
  // Event-time slack before a group is considered complete; pass the total
  // stateful window span of the deployment (0 is fine for intra-process SU
  // streams, whose groups arrive contiguously).
  int64_t finalize_slack = 0;
  // If non-empty, records are serialized and appended to this file, like the
  // paper's on-disk provenance store.
  std::string file_path;
  // Optional in-process consumer, called per finalized record.
  std::function<void(const ProvenanceRecord&)> consumer;
  // Optional live lineage index (genealog/lineage_store.h): each finalized
  // record is Ingest()ed after it is written. Not owned; must outlive the
  // node. Null (the default) costs one pointer check per record.
  LineageStore* lineage = nullptr;
  // Engine knob the sink honors: prov_buffer_bytes (the writer's buffer
  // swap threshold; ignored without file_path).
  EngineOptions engine;
};

class ProvenanceSinkNode final : public SingleInputNode {
 public:
  ProvenanceSinkNode(std::string name, ProvenanceSinkSpec options);
  ~ProvenanceSinkNode() override;

  uint64_t records() const { return records_; }
  uint64_t origin_tuples() const { return origin_tuples_; }
  uint64_t bytes_written() const { return bytes_written_; }
  double mean_origins_per_record() const {
    return records_ == 0 ? 0.0
                         : static_cast<double>(origin_tuples_) /
                               static_cast<double>(records_);
  }
  // True once the background writer reported a failed write or flush (disk
  // full, I/O error): the file is truncated even though bytes_written_
  // counts the serialized volume. Also surfaced as a one-shot stderr warning
  // at flush and teardown.
  bool write_error() const;

 protected:
  void OnTuple(TuplePtr t) override;
  void OnWatermark(int64_t wm) override;
  void OnFlush() override;

 private:
  struct Group {
    ProvenanceRecord record;
    std::unordered_set<uint64_t> seen_origin_ids;
  };

  void FinalizeBefore(int64_t ts_horizon);
  void Finalize(Group& group);
  void WarnOnWriteError();

  ProvenanceSinkSpec options_;
  std::FILE* file_ = nullptr;
  std::unique_ptr<AsyncFileWriter> writer_;  // null without file_path
  // Groups in creation (= derived ts) order, with an id index.
  std::list<Group> groups_;
  std::unordered_map<uint64_t, std::list<Group>::iterator> by_id_;
  ByteWriter scratch_;
  bool write_error_warned_ = false;
  uint64_t records_ = 0;
  uint64_t origin_tuples_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_PROVENANCE_SINK_H_
