// The final provenance artifact: one sink tuple together with the source
// tuples contributing to it (the paper stores these on disk, §7). Produced by
// GeneaLog's provenance sink and by the baseline resolver, so equivalence
// tests can compare the two techniques record-by-record.
//
// Record layout — the one description of it; only provenance_record.cc
// writes or reads it:
//
//   SerializeTuple(derived) | u32 origin count n | SerializeTuple(origin) × n
//
// Little-endian (common/serialize.h); SerializeTuple is the self-delimiting
// tuple encoding of core/type_registry.h. A provenance file is records back
// to back in finalization order, with no header or trailer. A lineage
// snapshot (LineageStore::SaveSnapshot) embeds the same records in epochs
// behind a checksummed header.
#ifndef GENEALOG_GENEALOG_PROVENANCE_RECORD_H_
#define GENEALOG_GENEALOG_PROVENANCE_RECORD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/async_writer.h"
#include "common/serialize.h"
#include "core/tuple.h"

namespace genealog {

struct ProvenanceRecord {
  TuplePtr derived;  // the sink tuple's payload
  uint64_t derived_id = 0;
  int64_t derived_ts = 0;
  std::vector<TuplePtr> origins;  // contributing source tuples
};

// Appends `record` to `w`.
void WriteProvenanceRecord(const ProvenanceRecord& record, ByteWriter& w);

// Appends a record whose tuples are already in SerializeTuple form (the
// lineage store interns them so; canonicalization re-serializes them).
void WriteProvenanceRecord(std::span<const uint8_t> derived,
                           std::span<const std::span<const uint8_t>> origins,
                           ByteWriter& w);

// Decodes the record at `r`'s position; derived_id and derived_ts come from
// the derived tuple. Errors read "<source>: record <index> at byte <offset>:
// ...". Throws std::out_of_range when the input ends inside the record or its
// origin count exceeds what the remaining bytes can hold (checked before
// reserving), and std::runtime_error on an unregistered type tag.
ProvenanceRecord ReadProvenanceRecord(ByteReader& r, std::string_view source,
                                      uint64_t index);

// Reads `path` whole; throws std::runtime_error naming `what` and the path
// when it cannot be opened.
std::vector<uint8_t> ReadFileBytes(const std::string& path, const char* what);

// Decodes every record of the provenance file at `path` in file order,
// handing each to `fn`. Returns the number of records. Throws like
// ReadFileBytes and ReadProvenanceRecord (the source named is the file).
uint64_t ReadProvenanceFile(const std::string& path,
                            const std::function<void(ProvenanceRecord&)>& fn);

// Canonical provenance-file records: each re-serialized with id, stimulus
// and baseline-annotation ids zeroed (the annotation keeps its length), its
// origins sorted by their bytes, and the records sorted. Two runs of the same
// logical query yield identical records (raw files never can: ids derive
// from a global uid counter, stimuli are wall-clock reads, and record order
// follows watermark arrival). Every other byte must match exactly.
std::vector<std::vector<uint8_t>> CanonicalProvenanceRecords(
    const std::string& path);

// The provenance file of one sink or resolver node: Write serializes a record
// into a double-buffered background writer (common/async_writer.h), so disk
// latency leaves the operator thread and the file holds exactly the records
// in write order. Counts what it writes, also without a file. Write and Flush
// are owner-thread-only.
class ProvenanceFileWriter {
 public:
  // Opens `path` for writing (throws std::runtime_error naming it when it
  // cannot); an empty path writes nothing but still counts. `owner` names the
  // node in the write-error warning; `buffer_bytes` is the writer's buffer
  // swap threshold (EngineOptions::prov_buffer_bytes).
  ProvenanceFileWriter(std::string owner, std::string path,
                       size_t buffer_bytes);
  // Flush(), so teardown after an aborted run leaves a well-formed prefix.
  ~ProvenanceFileWriter();
  ProvenanceFileWriter(const ProvenanceFileWriter&) = delete;
  ProvenanceFileWriter& operator=(const ProvenanceFileWriter&) = delete;

  void Write(const ProvenanceRecord& record);

  // Blocks until every record written so far is in the file (probes may read
  // it while the node lives); warns once on stderr if a write failed.
  void Flush();

  uint64_t records() const { return records_; }
  uint64_t origin_tuples() const { return origin_tuples_; }
  uint64_t bytes_written() const { return bytes_written_; }  // serialized
  double mean_origins_per_record() const {
    return records_ == 0 ? 0.0
                         : static_cast<double>(origin_tuples_) /
                               static_cast<double>(records_);
  }
  // True once a background write or flush failed (disk full, I/O error): the
  // file is truncated, though bytes_written() counts the lost records too.
  bool write_error() const;

 private:
  const std::string owner_;
  const std::string path_;
  std::unique_ptr<AsyncFileWriter> writer_;  // null without a path
  ByteWriter scratch_;
  bool write_error_warned_ = false;
  uint64_t records_ = 0;
  uint64_t origin_tuples_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_PROVENANCE_RECORD_H_
