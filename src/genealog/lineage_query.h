// First-class lineage query handle — the public face of the LineageStore.
//
// A running topology built with EngineOptions::lineage_store = true (env:
// GENEALOG_LINEAGE_STORE=1) owns a store fed by its provenance consumer;
// `BuiltDataflow::lineage()` hands out a LineageQuery over it, usable while
// the topology runs (the store's shared-mutex contract: queries share,
// ingestion briefly excludes). The handle shares ownership, so it stays
// valid after the topology is torn down — the retained window remains
// queryable post-run, which is also how tools/genealog_query serves offline
// files: ReplayProvenanceFile into a fresh store, then query through this
// same API.
#ifndef GENEALOG_GENEALOG_LINEAGE_QUERY_H_
#define GENEALOG_GENEALOG_LINEAGE_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "genealog/lineage_store.h"

namespace genealog {

class LineageQuery {
 public:
  using Entry = LineageStore::Entry;

  // An empty handle; valid() is false and every query throws.
  LineageQuery() = default;
  explicit LineageQuery(std::shared_ptr<const LineageStore> store)
      : store_(std::move(store)) {}

  bool valid() const { return store_ != nullptr; }
  explicit operator bool() const { return valid(); }

  // Backward closure: the retained tuples this sink tuple derives from — for
  // a fully unfolded GeneaLog record, its contributing source tuples.
  std::vector<Entry> Contributors(uint64_t sink_tuple_id) const {
    return Store().Contributors(sink_tuple_id);
  }
  // Forward closure: the retained derived tuples this source tuple
  // contributed to.
  std::vector<Entry> DerivedFrom(uint64_t source_tuple_id) const {
    return Store().DerivedFrom(source_tuple_id);
  }
  // k-hop neighborhood over forward and backward edges combined.
  std::vector<Entry> Expand(uint64_t tuple_id, int hops) const {
    return Store().Expand(tuple_id, hops);
  }
  std::optional<Entry> Lookup(uint64_t tuple_id) const {
    return Store().Lookup(tuple_id);
  }
  std::vector<uint64_t> RetainedRecordIds() const {
    return Store().RetainedRecordIds();
  }
  // Predicate scan: event-time range, node-uid and record-root filters over
  // the retained index (see LineagePredicate).
  std::vector<Entry> Select(const LineagePredicate& p) const {
    return Store().Select(p);
  }
  // Retained span, eviction counters, index size — see LineageStore::Stats.
  LineageStore::Stats Stats() const { return Store().stats(); }

 private:
  const LineageStore& Store() const {
    if (store_ == nullptr) {
      throw std::logic_error(
          "LineageQuery: no lineage store attached (build the query with "
          "EngineOptions::lineage_store / GENEALOG_LINEAGE_STORE=1)");
    }
    return *store_;
  }

  std::shared_ptr<const LineageStore> store_;
};

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_LINEAGE_QUERY_H_
