// The compact tuple coder: one tuple header + payload at a time, against
// dictionaries and delta bases that persist across calls. Two containers
// use it, so the two encode a tuple the same way:
//
//  * kCompactBatch wire frames (net/frame.h), whose FrameEncoder and
//    FrameDecoder add the frame header, the generation byte and the wire
//    accounting around it;
//  * provenance-file blocks (genealog/provenance_record.h), which code a
//    record's derived tuple under WireRole::kDerived and its origins through
//    PutOrigin/GetOrigin (WireRole::kOrigin plus the block's origin table,
//    below), with a fresh coder per block.
//
// Tuple encoding:
//
//   varint desc code | [u16 type_tag | u8 kind | u8 has-annotation]
//   | varint uid code | [varint uid] | zigzag seq delta
//   | zigzag ts delta | zigzag stimulus delta
//   | [varint n | zigzag id delta × n]          (has-annotation)
//   | payload
//
// Tuple ids split into node uid (high 24 bits) and sequence (low 40 bits).
// Descriptors (type_tag, kind, has-annotation) and uids are dictionary-coded,
// sender-driven: an entry is defined inline ((index << 1) | 1 followed by
// the definition, in brackets above) the first time it is used and
// referenced ((index << 1) | 0) afterwards, so the decoder needs no
// out-of-band negotiation. Sequences are delta-coded against the uid's
// previous sequence; ts and stimulus against the previous tuple of the same
// role, so interleaving roles does not inflate the deltas. Annotation ids
// (baseline provenance) are delta-coded within the list.
//
// The payload is the registered SerializePayload encoding, except for an
// unfolded tuple (tags::kUnfolded, the SU -> MU provenance stream) under
// WireRole::kOuter, which leads with a one-byte form tag:
//   u8 form = 1 | varint (derived_index << 1) | is_new
//               | [derived: tuple under kDerived, when is_new]
//               | origin: tuple under kOrigin
// An SU emits one U tuple per (derived, origin) pair, all of a derived
// tuple's U tuples holding the same `derived` object; the coder interns
// derived tuples by pointer identity until EndFrame(), and the decoder hands
// every U tuple of one index the same TuplePtr. derived_id/derived_ts/
// origin_id/origin_ts/origin_kind are not sent: the decoder rebuilds them
// from the nested headers. A U tuple whose fields disagree with its nested
// tuples (or whose nested tuple is itself unfolded, or missing) takes form 0
// followed by its SerializePayload bytes. A nested tuple is never decoded
// as unfolded, so decoding recurses at most one level.
//
// Block origins (PutOrigin/GetOrigin, provenance blocks only) write each
// distinct origin once per block. The descriptor-code varint carries one
// more low bit:
//   varint (desc code << 1) | rest of the tuple as above   (written in full)
//   varint (ref << 1) | 1                                  (back-reference)
// where ref indexes the origins written in full since Reset(), in order. A
// back-reference decodes to the same TuplePtr as its target and leaves every
// delta base untouched on both sides. The encoder writes one only when an
// earlier full origin has the same id, type tag, kind, ts, stimulus and
// payload bytes and the same baseline annotation (or neither has one), so
// an id that aliases another tuple is written in full and decodes to its own
// bytes.
// Wire frames never use this form.
#ifndef GENEALOG_NET_TUPLE_CODER_H_
#define GENEALOG_NET_TUPLE_CODER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"
#include "core/type_registry.h"

namespace genealog {

// --- varint primitives ------------------------------------------------------

// The LEB128-style varint/zigzag encoders the compact coder is built on,
// shared with the frame headers and the lineage request/response protocol
// (net/lineage_protocol.h). GetVarint throws std::runtime_error on
// encodings longer than 10 bytes or overflowing 64 bits; truncation
// surfaces as ByteReader's std::out_of_range.
void PutVarint(ByteWriter& w, uint64_t v);
uint64_t GetVarint(ByteReader& r);
void PutZigzag(ByteWriter& w, int64_t v);
int64_t GetZigzag(ByteReader& r);

// The header slots the coder interleaves: top-level tuples, and the derived
// and origin tuples (nested in structural U payloads, or a provenance
// record's own). Each role keeps its own ts/stimulus delta base.
enum class WireRole : uint8_t { kOuter = 0, kDerived = 1, kOrigin = 2 };
inline constexpr size_t kWireRoles = 3;

struct WireDeltas {
  int64_t ts = 0;
  int64_t stimulus = 0;
};

struct UnfoldedTuple;

class CompactTupleEncoder {
 public:
  // Appends `t` with wire kind `kind` (the caller's remotification) under
  // `role`. Returns the bytes the raw codec (SerializeTuple) spends on the
  // same tuple, for wire accounting. An unfolded tuple under a nested role
  // is written, but the decoder rejects it: callers keep them out.
  uint64_t Put(ByteWriter& out, const Tuple& t, TupleKind kind,
               WireRole role);

  // Appends block origin `t` with its own kind: a back-reference when an
  // identical origin was written in full since Reset(), else the whole
  // tuple. The table points into `out` (payload offsets), so every call
  // between two Resets must append to the same, never cleared, writer.
  void PutOrigin(ByteWriter& out, const Tuple& t);

  // Forgets the interned derived tuples (a freed derived's address may be
  // reused); call after every frame.
  void EndFrame() { frame_derived_.clear(); }

  // Drops every dictionary and delta base: the next tuple starts a
  // stream that a fresh decoder reads.
  void Reset();

 private:
  // `block_origin` shifts the descriptor code one more bit (PutOrigin's
  // full-tuple form).
  uint64_t PutHeader(ByteWriter& out, const Tuple& t, TupleKind kind,
                     WireRole role, bool block_origin = false);
  uint64_t PutUnfoldedPayload(ByteWriter& out, const UnfoldedTuple& u);

  // Descriptor keys pack (type_tag << 16 | wire kind << 8 | has-annotation);
  // uid keys are the high 24 id bits.
  std::unordered_map<uint32_t, uint32_t> desc_index_;
  std::unordered_map<uint32_t, uint32_t> uid_index_;
  std::vector<uint64_t> uid_last_seq_;
  WireDeltas last_[kWireRoles];

  // The derived tuples defined since EndFrame(): index and raw-codec bytes,
  // keyed by object identity.
  struct DerivedEntry {
    uint32_t index = 0;
    uint64_t raw_bytes = 0;
  };
  std::unordered_map<const Tuple*, DerivedEntry> frame_derived_;

  // The block origins written in full since Reset(), keyed by tuple id (the
  // first of each id): what a back-reference must match, with the payload
  // as an offset and length into the caller's writer rather than a copy.
  struct OriginEntry {
    uint32_t ref = 0;
    uint16_t type_tag = 0;
    TupleKind kind = TupleKind::kSource;
    int64_t ts = 0;
    int64_t stimulus = 0;
    size_t payload_at = 0;
    size_t payload_bytes = 0;
    // A BL origin's annotation, which a reference must repeat exactly.
    bool annotated = false;
    std::vector<uint64_t> annotation;
  };
  std::unordered_map<uint64_t, OriginEntry> block_origins_;
  uint32_t block_origins_written_ = 0;
  ByteWriter payload_scratch_;
};

// The decoding mirror. Throws std::runtime_error naming the defect
// ("compact tuple: ...") on dangling or non-contiguous dictionary
// references, unregistered tags, a nested unfolded tuple, an oversized
// annotation count or a back-reference past the block's origins, and
// ByteReader's std::out_of_range on truncation.
class CompactTupleDecoder {
 public:
  TuplePtr Get(ByteReader& in, WireRole role);
  // Reads what PutOrigin wrote: every back-reference to one origin returns
  // that origin's TuplePtr, so callers must not mutate what it returns.
  TuplePtr GetOrigin(ByteReader& in);

  // Releases the interned derived tuples; call after every frame.
  void EndFrame() { frame_derived_.clear(); }

  void Reset();

 private:
  // Get, after the caller read the descriptor code.
  TuplePtr GetTuple(ByteReader& in, WireRole role, uint64_t desc_code);
  TuplePtr GetUnfoldedPayload(ByteReader& in, int64_t ts);

  struct Descriptor {
    uint16_t tag = 0;
    TupleKind kind = TupleKind::kSource;
    bool has_annotation = false;
    PayloadDeserializer fn = nullptr;
  };

  std::vector<Descriptor> descs_;
  std::vector<uint64_t> uids_;
  std::vector<uint64_t> uid_last_seq_;
  WireDeltas last_[kWireRoles];
  std::vector<TuplePtr> frame_derived_;
  std::vector<TuplePtr> block_origins_;  // the full origins since Reset()
};

}  // namespace genealog

#endif  // GENEALOG_NET_TUPLE_CODER_H_
