// Live, compact, queryable lineage index over finalized provenance records.
//
// The provenance plane used to terminate in a flat file: answering "where did
// this alert come from" meant stopping the world and replaying bytes. The
// LineageStore turns the same finalized records the sink writes into a
// serving structure maintained *online*: the provenance consumer
// (ProvenanceSinkNode in intra mode, the MU-fed sink instance in distributed
// mode) calls Ingest() per finalized record, off the emit path — the file
// bytes are untouched and a disabled store costs the sink one null-pointer
// check.
//
// Index layout. Every distinct tuple id maps to one interned slot holding the
// tuple's serialized bytes (header + payload; storing TuplePtrs would pin
// whole contribution graphs through their U1/U2/N references) plus forward
// and backward adjacency as u32 slot lists:
//   * bwd — the origins of this record (non-empty only for derived/sink
//     tuples; this *is* the provenance record);
//   * fwd — the derived records this tuple contributed to (the mirror).
// Node uids (the high 24 bits of every tuple id — see Node::NextTupleId) are
// dictionary-coded: each slot stores a u16 code into a per-store uid table,
// so per-slot key overhead stays flat no matter how wide the topology is.
//
// Retention. Records append to the current epoch; once it holds
// epoch_records records it is sealed and a new one opens. Whole epochs are
// evicted ring-buffer style from the front when either bound trips: more
// than retain_records records retained, or the epoch's newest derived
// event-time falling more than retain_span behind the newest ingested
// record. Eviction unlinks each record's edges and drops slots whose
// reference count (1 per live record + 1 per appearance in a live record's
// origin list) reaches zero — memory stays flat under millions of alerts,
// and queries over evicted ids answer truncated-but-correct.
//
// Concurrency contract. One std::shared_mutex: Ingest takes it exclusively
// for an O(origins) critical section per record; every query takes it shared,
// so lookups run concurrently with each other and interleave with ingestion
// while the topology executes. Materialized results (fresh TuplePtrs
// deserialized from the stored bytes) are snapshots — safe to hold after the
// lock drops, unaffected by later eviction.
#ifndef GENEALOG_GENEALOG_LINEAGE_STORE_H_
#define GENEALOG_GENEALOG_LINEAGE_STORE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/engine_options.h"
#include "core/tuple.h"
#include "genealog/provenance_record.h"

namespace genealog {

struct LineageOptions {
  // Evict whole epochs once more than this many records are retained
  // (0 = unbounded).
  size_t retain_records = 1 << 20;
  // Evict epochs whose newest derived event-time falls more than this many
  // time units behind the newest ingested record (0 = no horizon).
  int64_t retain_span = 0;
  // Records per epoch — the eviction granularity. Smaller epochs track a
  // tight retain_records bound more closely at the cost of more bookkeeping.
  size_t epoch_records = 1024;
};

// The lineage subset of EngineOptions, spelled as store options.
inline LineageOptions MakeLineageOptions(const EngineOptions& engine) {
  LineageOptions o;
  o.retain_records = engine.lineage_retain_records;
  o.retain_span = engine.lineage_retain_span;
  return o;
}

// Predicate for LineageStore::Select — an event-time-range scan over the
// interned index, optionally narrowed to one producing node and/or to record
// roots. Serves both in-process callers and the wire protocol
// (net/lineage_protocol.h), which is why it is plain data.
struct LineagePredicate {
  int64_t min_ts = INT64_MIN;  // inclusive event-time range
  int64_t max_ts = INT64_MAX;
  // When set, only tuples produced by this node uid (the high 24 bits of a
  // tuple id — see Node::NextTupleId) match.
  bool has_node_uid = false;
  uint64_t node_uid = 0;
  // Only record roots (derived/sink tuples heading a provenance record).
  bool records_only = false;
  // Truncate the (ts, id)-ordered result to the first `limit` entries
  // (0 = unlimited).
  uint64_t limit = 0;
};

class LineageStore {
 public:
  // A materialized tuple: the interned key fields plus a fresh TuplePtr
  // deserialized from the stored bytes (meta-attribute pointers null, same as
  // any tuple rebuilt from the wire).
  struct Entry {
    uint64_t id = 0;
    int64_t ts = 0;
    uint16_t type_tag = 0;
    TuplePtr tuple;
  };

  struct Stats {
    uint64_t records_ingested = 0;
    uint64_t records_retained = 0;
    uint64_t tuples_retained = 0;  // interned slots (derived + origins)
    uint64_t edges_retained = 0;   // origin links (fwd mirrors not counted)
    uint64_t records_evicted = 0;
    uint64_t epochs_evicted = 0;
    uint64_t bytes_retained = 0;  // serialized tuple payload bytes
    uint64_t node_uids = 0;       // dictionary-coded node uid count
    // Derived event-time span currently retained; min > max when empty.
    int64_t min_retained_ts = 0;
    int64_t max_retained_ts = -1;
  };

  explicit LineageStore(LineageOptions options = {});

  LineageStore(const LineageStore&) = delete;
  LineageStore& operator=(const LineageStore&) = delete;

  // Indexes one finalized record. A second record for the same derived id
  // merges its origins into the first (distributed re-finalization safety).
  void Ingest(const ProvenanceRecord& record);

  // Backward closure: every retained tuple the given sink/derived tuple
  // transitively derives from, excluding the key itself. For a fully
  // unfolded GeneaLog record this is the contributing source-tuple set.
  std::vector<Entry> Contributors(uint64_t sink_tuple_id) const;

  // Forward closure: every retained derived tuple the given source tuple
  // transitively contributed to, excluding the key itself.
  std::vector<Entry> DerivedFrom(uint64_t source_tuple_id) const;

  // k-hop neighborhood over forward and backward edges combined, excluding
  // the key itself.
  std::vector<Entry> Expand(uint64_t tuple_id, int hops) const;

  // Point lookup of one interned tuple.
  std::optional<Entry> Lookup(uint64_t tuple_id) const;

  // Ids of every retained record's derived tuple, oldest epoch first.
  std::vector<uint64_t> RetainedRecordIds() const;

  // Predicate scan over the retained index: every live interned tuple whose
  // event time falls in [p.min_ts, p.max_ts], optionally restricted to one
  // producing node uid and/or to record roots, sorted by (ts, id) and
  // truncated to p.limit when nonzero.
  std::vector<Entry> Select(const LineagePredicate& p) const;

  // Persists the retained window to `path`: the snapshot is written to
  // `path + ".tmp"` and atomically renamed into place, led by a versioned
  // header (magic, version, payload size, FNV-1a checksum) so a restarted
  // node can reject torn or corrupted files instead of loading them; the
  // records go in provenance-file blocks (layout in
  // genealog/provenance_record.h). Safe to call while ingestion runs (takes
  // the shared lock, like a query).
  void SaveSnapshot(const std::string& path) const;

  // Rebuilds a snapshot into this store through the same Ingest path the
  // live consumer uses, preserving epoch boundaries and the history counters
  // (records_ingested / evicted) of the saving store. The store must be
  // empty. Returns the number of records restored. Throws std::runtime_error
  // on bad magic/version/checksum or structural mismatch and
  // std::out_of_range on truncation — a corrupt snapshot never half-loads.
  uint64_t LoadSnapshot(const std::string& path);

  Stats stats() const;
  const LineageOptions& options() const { return options_; }

 private:
  struct Slot {
    uint64_t id = 0;
    int64_t ts = 0;
    uint16_t type_tag = 0;
    uint16_t node_code = 0;
    // 1 per live record rooted here + 1 per appearance in a live record's
    // origin list; the slot is freed when this reaches zero.
    uint32_t refs = 0;
    bool live = false;
    bool is_record = false;
    std::vector<uint8_t> bytes;
    std::vector<uint32_t> fwd;
    std::vector<uint32_t> bwd;
  };

  struct Epoch {
    std::vector<uint32_t> records;  // derived slots, ingest order
    int64_t min_ts = 0;
    int64_t max_ts = 0;
    bool sealed = false;
  };

  uint32_t InternLocked(uint64_t id, int64_t ts, const Tuple& tuple);
  void DerefLocked(uint32_t slot);
  void EvictFrontLocked();
  void MaybeEvictLocked();
  Entry MaterializeLocked(uint32_t slot) const;
  template <typename Neighbors>
  std::vector<Entry> ClosureLocked(uint64_t root_id, int max_hops,
                                   Neighbors neighbors) const;

  const LineageOptions options_;

  mutable std::shared_mutex mu_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<uint64_t, uint32_t> id_index_;
  std::unordered_map<uint64_t, uint16_t> node_code_;
  std::deque<Epoch> epochs_;
  int64_t latest_ts_ = 0;
  bool any_ingested_ = false;

  uint64_t records_ingested_ = 0;
  uint64_t records_retained_ = 0;
  uint64_t tuples_retained_ = 0;
  uint64_t edges_retained_ = 0;
  uint64_t records_evicted_ = 0;
  uint64_t epochs_evicted_ = 0;
  uint64_t bytes_retained_ = 0;
};

// Replays a provenance file (genealog/provenance_record.h) into `store`,
// reconstructing each record through the same Ingest path the live consumer
// uses. Returns the number of records replayed. Throws like
// ReadProvenanceFile: std::runtime_error on unreadable or corrupt files and
// std::out_of_range on torn ones, naming the file, the block and its byte
// offset, after the records of every earlier block went into `store`.
uint64_t ReplayProvenanceFile(const std::string& path, LineageStore& store);

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_LINEAGE_STORE_H_
