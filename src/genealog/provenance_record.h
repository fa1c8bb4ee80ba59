// The final provenance artifact: one sink tuple together with the source
// tuples contributing to it (the paper stores these on disk, §7). Produced by
// GeneaLog's provenance sink and by the baseline resolver, so equivalence
// tests can compare the two techniques record-by-record.
//
// The one description of the provenance file, its blocks and the lineage
// snapshot that embeds them; only provenance_record.cc writes or reads a
// block (LineageStore frames the snapshot around them). Little-endian
// (common/serialize.h).
//
//   file:   u32 magic "GLPF" | u32 version = 2 | block...
//   block:  u32 body bytes | u32 record count | u64 FNV-1a(body) | body
//   body:   record × record count
//   record: varint origin count n | derived | (origin | back-ref) × n
//
// Tuples go through the compact tuple coder (net/tuple_coder.h): the
// derived tuple under WireRole::kDerived, origins through its block-origin
// form, so descriptors and node uids are dictionary-coded and ids,
// timestamps and stimuli delta-coded. Each distinct origin is written in
// full once per block; a later occurrence of it in the same block is a
// varint back-reference (sliding-window records share most of their
// origins), and every reference to it decodes to the same TuplePtr. The
// coder and its origin table start fresh in every block, so a block
// decodes alone from its offset. Version 1 files wrote every origin in
// full; readers reject them by version. A writer seals a block once its body
// reaches kProvenanceBlockBytes, and on Flush(); the file header goes out
// with the first block, so a file without records is empty. Records are in
// finalization order.
//
// A reader checks a block's length and checksum before decoding it and
// hands over the records of whole blocks only. A torn or corrupt block
// throws, naming the file, the block index and its byte offset, after the
// records of every earlier block: what a reader sees of a file is always a
// prefix of whole blocks, never a torn record.
//
// Lineage snapshot (LineageStore::SaveSnapshot / LoadSnapshot):
//
//   u32 magic "GLSN" | u32 version = 3 | u64 payload size
//   | u64 FNV-1a(payload) | payload
//   payload: u64 records_ingested | u64 records_retained
//            | u64 records_evicted | u64 epochs_evicted | i64 latest_ts
//            | u8 any_ingested | u32 epoch count
//            | per epoch: u8 sealed | u32 block count | block × block count
//
// Snapshot version 2 embedded blocks that wrote every origin in full, and
// LoadSnapshot rejects it by version. Version 1 held the raw layout
//
//   SerializeTuple(derived) | u32 origin count n | SerializeTuple(origin) × n
//
// (SerializeTuple is the fixed-width tuple encoding of core/type_registry.h),
// which survives only as the canonical form CanonicalProvenanceRecords
// emits: the query goldens (tests/queries/golden/queries.golden) hash it, so
// they do not move with the file encoding.
#ifndef GENEALOG_GENEALOG_PROVENANCE_RECORD_H_
#define GENEALOG_GENEALOG_PROVENANCE_RECORD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/async_writer.h"
#include "common/serialize.h"
#include "core/tuple.h"
#include "net/tuple_coder.h"

namespace genealog {

struct ProvenanceRecord {
  TuplePtr derived;  // the sink tuple's payload
  uint64_t derived_id = 0;
  int64_t derived_ts = 0;
  std::vector<TuplePtr> origins;  // contributing source tuples
};

// Body bytes at which a block seals. A constant, not a setting: dictionary
// reuse saturates well below it, and it bounds what a torn tail can lose.
inline constexpr size_t kProvenanceBlockBytes = 16 * 1024;

// Encodes records into sealed blocks in memory: the file writer drains it
// into a file, and the lineage snapshot into its payload. With
// `file_header`, the first sealed block is preceded by the file header, so
// sealed() is a whole provenance file.
class ProvenanceBlockEncoder {
 public:
  explicit ProvenanceBlockEncoder(bool file_header)
      : file_header_(file_header) {}

  // Appends `record` to the open block and seals the block once its body
  // reaches kProvenanceBlockBytes. Throws std::invalid_argument on an
  // unfolded tuple, which the coder does not nest.
  void Add(const ProvenanceRecord& record);
  // Seals the open block, if it holds a record.
  void Seal();

  // The sealed bytes not yet cleared.
  const std::vector<uint8_t>& sealed() const { return sealed_.bytes(); }
  void ClearSealed() { sealed_.Clear(); }
  uint64_t blocks() const { return blocks_; }

 private:
  const bool file_header_;
  CompactTupleEncoder coder_;
  ByteWriter body_;
  uint32_t body_records_ = 0;
  ByteWriter sealed_;
  uint64_t blocks_ = 0;
};

// Decodes the block at `r`'s position and hands each of its records to
// `fn`, all after the whole block decoded. Returns the record count. Errors
// read "<source>: block <index> at byte <offset>: ...": std::out_of_range
// when the input ends inside the block (its declared length is checked
// before anything is read or reserved), std::runtime_error on a checksum
// mismatch, a body that does not decode (naming the record) or an
// unregistered type tag.
uint64_t ReadProvenanceBlock(ByteReader& r, std::string_view source,
                             uint64_t index,
                             const std::function<void(ProvenanceRecord&)>& fn);

// Reads `path` whole; throws std::runtime_error naming `what` and the path
// when it cannot be opened.
std::vector<uint8_t> ReadFileBytes(const std::string& path, const char* what);

// Decodes every record of the provenance file at `path` in file order,
// handing each to `fn`. Returns the number of records. Throws like
// ReadFileBytes and ReadProvenanceBlock (the source named is the file), and
// std::runtime_error on a bad magic or an unknown version.
uint64_t ReadProvenanceFile(const std::string& path,
                            const std::function<void(ProvenanceRecord&)>& fn);

// Canonical provenance-file records, in the raw layout above: each
// re-serialized with id, stimulus
// and baseline-annotation ids zeroed (the annotation keeps its length), its
// origins sorted by their bytes, and the records sorted. Two runs of the same
// logical query yield identical records (raw files never can: ids derive
// from a global uid counter, stimuli are wall-clock reads, and record order
// follows watermark arrival). Every other byte must match exactly.
std::vector<std::vector<uint8_t>> CanonicalProvenanceRecords(
    const std::string& path);

// The provenance file of one sink or resolver node: Write encodes a record
// into the open block, and every sealed block goes to a double-buffered
// background writer (common/async_writer.h), so disk latency leaves the
// operator thread and the file holds exactly the records in write order.
// Encodes and counts also without a file. Write and Flush are
// owner-thread-only.
class ProvenanceFileWriter {
 public:
  // Opens `path` for writing (throws std::runtime_error naming it when it
  // cannot); an empty path writes nothing but still counts. `owner` names the
  // node in the write-error warning; `buffer_bytes` is the writer's buffer
  // swap threshold (EngineOptions::prov_buffer_bytes in the engine; tests
  // pass a few bytes to force many background handoffs).
  ProvenanceFileWriter(std::string owner, std::string path,
                       size_t buffer_bytes);
  // Flush(), so teardown after an aborted run leaves whole blocks.
  ~ProvenanceFileWriter();
  ProvenanceFileWriter(const ProvenanceFileWriter&) = delete;
  ProvenanceFileWriter& operator=(const ProvenanceFileWriter&) = delete;

  void Write(const ProvenanceRecord& record);

  // Seals the open block and blocks until every record written so far is in
  // the file (probes may read it while the node lives); warns once on stderr
  // if a write failed.
  void Flush();

  uint64_t records() const { return records_; }
  uint64_t origin_tuples() const { return origin_tuples_; }
  // Sealed bytes, file header included: the file's size once flushed.
  uint64_t bytes_written() const { return bytes_written_; }
  double mean_origins_per_record() const {
    return records_ == 0 ? 0.0
                         : static_cast<double>(origin_tuples_) /
                               static_cast<double>(records_);
  }
  // True once a background write or flush failed (disk full, I/O error): the
  // file is truncated, though bytes_written() counts the lost records too.
  bool write_error() const;

 private:
  // Hands the encoder's sealed blocks to the file and the byte count.
  void Drain();

  const std::string owner_;
  const std::string path_;
  std::unique_ptr<AsyncFileWriter> writer_;  // null without a path
  ProvenanceBlockEncoder encoder_{/*file_header=*/true};
  bool write_error_warned_ = false;
  uint64_t records_ = 0;
  uint64_t origin_tuples_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_PROVENANCE_RECORD_H_
