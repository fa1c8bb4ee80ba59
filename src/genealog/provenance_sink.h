// Terminal consumer of a (completely) unfolded delivering stream: groups the
// per-origin tuples back into one record per sink tuple and hands each record
// to a writer (the paper stores provenance on disk; the evaluation notes its
// volume is 0.003%–0.5% of the source data, a ratio the benches also report).
//
// Unfolded tuples of one sink tuple arrive within a bounded event-time
// horizon (the MU join window); a group is finalized once the watermark
// passes derived_ts + finalize_slack, and all groups finalize at flush.
//
// Records go to a ProvenanceFileWriter (genealog/provenance_record.h, which
// also defines the file layout): compact checksummed blocks, written
// double-buffered and asynchronously with bounded buffering, the file
// holding exactly the records in finalization order.
#ifndef GENEALOG_GENEALOG_PROVENANCE_SINK_H_
#define GENEALOG_GENEALOG_PROVENANCE_SINK_H_

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/engine_options.h"
#include "common/int_math.h"
#include "genealog/provenance_record.h"
#include "genealog/unfolded.h"
#include "spe/node.h"

namespace genealog {

class LineageStore;

// What a provenance sink does with finalized records: where the file goes,
// who consumes records in process, and which lineage store (if any) indexes
// them.
struct ProvenanceSinkSpec {
  // Event-time slack before a group is considered complete; pass the total
  // stateful window span of the deployment (0 is fine for intra-process SU
  // streams, whose groups arrive contiguously).
  int64_t finalize_slack = 0;
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

  ProvenanceSinkSpec options_;
  ProvenanceFileWriter output_;
  // Groups in creation (= derived ts) order, with an id index.
  std::list<Group> groups_;
  std::unordered_map<uint64_t, std::list<Group>::iterator> by_id_;
};

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_PROVENANCE_SINK_H_
