// Terminal consumer of a (completely) unfolded delivering stream: groups the
// per-origin tuples back into one record per sink tuple and hands each record
// to a writer (the paper stores provenance on disk; the evaluation notes its
// volume is 0.003%–0.5% of the source data, a ratio the benches also report).
//
// Completeness is the input watermark's promise: no unfolded tuple for a
// derived ts below a watermark the sink has seen ever arrives. The intra SU
// keeps it by construction (Theorem 5.3: a sink tuple's U tuples carry its
// ts and leave together), and the MU keeps it by forwarding its merged
// watermark minus its join window (genealog/mu.h). So a group is finalized
// as soon as the watermark passes its derived_ts, and all groups finalize at
// flush. A U tuple that breaks the promise fails the run by name rather
// than start a second, partial record for the same sink tuple.
//
// Records go to a ProvenanceFileWriter (genealog/provenance_record.h, which
// also defines the file layout): compact checksummed blocks, written
// double-buffered and asynchronously with bounded buffering, the file
// holding exactly the records in (derived_ts, derived_id) order.
#ifndef GENEALOG_GENEALOG_PROVENANCE_SINK_H_
#define GENEALOG_GENEALOG_PROVENANCE_SINK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/engine_options.h"
#include "genealog/provenance_record.h"
#include "genealog/unfolded.h"
#include "spe/node.h"

namespace genealog {

class LineageStore;

// What a provenance sink does with finalized records: where the file goes,
// who consumes records in process, and which lineage store (if any) indexes
// them.
struct ProvenanceSinkSpec {
  // If non-empty, records are encoded and appended to this file, like the
  // paper's on-disk provenance store.
  std::string file_path;
  // Optional in-process consumer, called per finalized record.
  std::function<void(const ProvenanceRecord&)> consumer;
  // Optional live lineage index (genealog/lineage_store.h): each finalized
  // record is Ingest()ed after it is written. Not owned; must outlive the
  // node. Null (the default) costs one pointer check per record.
  LineageStore* lineage = nullptr;
};

class ProvenanceSinkNode final : public SingleInputNode {
 public:
  ProvenanceSinkNode(std::string name, ProvenanceSinkSpec options);

  uint64_t records() const { return output_.records(); }
  uint64_t origin_tuples() const { return output_.origin_tuples(); }
  uint64_t bytes_written() const { return output_.bytes_written(); }
  bool write_error() const { return output_.write_error(); }
  const ProvenanceFileWriter& output() const { return output_; }

 protected:
  // Throws std::runtime_error for a U tuple whose derived_ts is below the
  // horizon already finalized.
  void OnTuple(TuplePtr t) override;
  void OnWatermark(int64_t wm) override;
  void OnFlush() override;

 private:
  struct Group {
    ProvenanceRecord record;
    std::unordered_set<uint64_t> seen_origin_ids;
  };

  void FinalizeBefore(int64_t ts_horizon);

  ProvenanceSinkSpec options_;
  ProvenanceFileWriter output_;
  // Open groups keyed (derived_ts, derived_id): the prefix below the
  // watermark is what finalizes.
  std::map<std::pair<int64_t, uint64_t>, Group> groups_;
  // Every group with derived_ts below this has been finalized.
  int64_t finalized_before_ = kWatermarkMin;
};

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_PROVENANCE_SINK_H_
