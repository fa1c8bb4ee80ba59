// Baseline provenance resolution: joins annotated sink tuples with the
// temporarily stored source streams to materialize ProvenanceRecords
// ("source streams are temporarily maintained and later joined with the
// annotated output streams", §7).
//
// Port 0 carries the annotated sink stream; ports 1..k carry (copies of) the
// source streams. The node buffers sink tuples until the merged watermark
// guarantees all their contributing source tuples have arrived (contributing
// tuples can be up to the query's total stateful window span away in event
// time, in either direction), then resolves each annotation id against the
// store. In the distributed deployment the source-stream ports are fed by
// Receive operators, which is exactly the full-stream network shipping whose
// cost Figure 13 shows.
#ifndef GENEALOG_BASELINE_RESOLVER_H_
#define GENEALOG_BASELINE_RESOLVER_H_

#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "baseline/source_store.h"
#include "common/engine_options.h"
#include "common/int_math.h"
#include "genealog/provenance_record.h"
#include "spe/node.h"

namespace genealog {

struct BaselineResolverOptions {
  // Total stateful window span of the query (same figure the MU join uses).
  int64_t slack = 0;
  // If true, the store evicts tuples that can no longer contribute
  // (ts < watermark - 2*slack): the "oracle eviction" ablation. The default
  // (false) reproduces the paper's unbounded-store behaviour.
  bool evict = false;
  // If non-empty, records are encoded and appended to this file.
  std::string file_path;
  std::function<void(const ProvenanceRecord&)> consumer;
};

class BaselineResolverNode final : public MergingNode {
 public:
  BaselineResolverNode(std::string name, BaselineResolverOptions options);

  // Records, origins and bytes written, and the write-error flag.
  const ProvenanceFileWriter& output() const { return output_; }
  uint64_t missing_ids() const { return missing_ids_; }
  size_t store_peak_size() const { return store_.peak_size(); }

 protected:
  void OnMergedTuple(size_t port, TuplePtr t) override;
  void OnMergedWatermark(int64_t wm) override;
  void OnAllFlushed() override;

 private:
  void ResolveBefore(int64_t ts_horizon);
  void Resolve(const TuplePtr& sink_tuple);

  BaselineResolverOptions options_;
  ProvenanceFileWriter output_;
  BaselineSourceStore store_;
  std::deque<TuplePtr> pending_sinks_;
  uint64_t missing_ids_ = 0;
};

}  // namespace genealog

#endif  // GENEALOG_BASELINE_RESOLVER_H_
