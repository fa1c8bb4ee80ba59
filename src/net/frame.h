// Wire frames for Send/Receive channels.
//
// A frame is one self-contained message: a serialized tuple, a chunk of
// tuples plus an optional trailing watermark (the batched data plane's
// unit), a watermark, or a flush (end-of-stream). Channels transport frames
// as opaque byte blobs; the TCP transport adds a u32 length prefix per
// frame.
//
// Two codecs put batches on the wire (common/engine_options.h, WireCodec):
//
//  * raw — the seed format: one fixed-width serialized tuple after another
//    (EncodeBatchFrame below). Stateless; DecodeFrame handles it.
//
//  * compact (FrameKind::kCompactBatch) — the edge-to-cloud format. Within a
//    frame, tuple ids split into node uid (high 24 bits) and sequence (low
//    40 bits); uids and (type_tag, kind, has-annotation) descriptors are
//    dictionary-coded per channel, sequences are delta-encoded against the
//    per-uid previous value, and timestamps/stimuli against a running
//    previous, all as zigzag varints. Payload bytes are the registered
//    SerializePayload encoding, unchanged, except for unfolded tuples
//    (below).
//
//    Dictionaries are sender-driven and build incrementally: every entry is
//    defined inline ((index << 1) | 1 followed by the definition) the first
//    time it is used, and referenced ((index << 1) | 0) afterwards, so the
//    receiver needs no out-of-band negotiation. Each compact frame leads
//    with a generation byte; FrameEncoder::Reset() bumps it (reconnect, new
//    stream incarnation), and a decoder seeing an unexpected generation
//    drops its dictionaries and delta state before decoding — reset-safe
//    because the first post-reset frame redefines every entry it uses.
//
//    Unfolded tuples (tags::kUnfolded, the SU -> MU provenance streams) get
//    a structural payload instead of their SerializePayload bytes. An SU
//    emits one U tuple per (derived, origin) pair, all of a derived tuple's
//    U tuples holding the same `derived` object, so the payload is:
//      u8 form = 1 | varint (derived_index << 1) | is_new
//                  | [derived: nested header + payload, when is_new]
//                  | origin: nested header + payload
//    Derived tuples are interned per frame by pointer identity: the first
//    U tuple of a frame that holds one defines it, later ones reference
//    its frame-local index, and the decoder hands all of them the same
//    TuplePtr — the sharing the SU produced on the sender. Nested headers
//    go through the channel's descriptor and uid dictionaries and per-uid
//    sequence deltas like any outer header; ts and stimulus deltas are kept
//    per role (outer, derived, origin), so interleaving the three does not
//    inflate them. derived_id/derived_ts/origin_id/origin_ts/origin_kind
//    are not sent: the decoder rebuilds them from the nested headers. A U
//    tuple whose fields disagree with its nested tuples (or whose nested
//    tuple is itself unfolded, or missing) ships as form 0 followed by its
//    SerializePayload bytes. A nested tuple is never unfolded, so decoding
//    recurses at most one level.
//
// The compact path is stateful on both sides, hence the FrameEncoder /
// FrameDecoder classes; the stateless free functions below remain the raw
// codec and the compatibility surface for existing callers.
#ifndef GENEALOG_NET_FRAME_H_
#define GENEALOG_NET_FRAME_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/engine_options.h"
#include "common/serialize.h"
#include "core/type_registry.h"

namespace genealog {

// --- varint primitives ------------------------------------------------------

// The LEB128-style varint/zigzag encoders the compact codec is built on,
// shared with the lineage request/response protocol (net/lineage_protocol.h).
// GetVarint throws std::runtime_error on encodings longer than 10 bytes or
// overflowing 64 bits; truncation surfaces as ByteReader's std::out_of_range.
void PutVarint(ByteWriter& w, uint64_t v);
uint64_t GetVarint(ByteReader& r);
void PutZigzag(ByteWriter& w, int64_t v);
int64_t GetZigzag(ByteReader& r);

enum class FrameKind : uint8_t {
  kTuple = 1,
  kWatermark = 2,
  kFlush = 3,
  // A StreamBatch: u32 tuple count, the tuples, and an i64 high-watermark
  // (INT64_MIN when the batch carries none). One frame per batch keeps the
  // per-message framing and syscall costs amortized across the chunk.
  kBatch = 4,
  // A StreamBatch under the compact codec:
  //   u8 kind | u8 generation | u8 flags | body
  // flags bit 1 = the batch carries a watermark; every other bit is reserved
  // and rejected. The body is the dictionary/delta encoding described in the
  // header comment.
  kCompactBatch = 5,
};

// Human-readable frame kind, for error messages ("corrupt batch frame").
// Unknown values name themselves "unknown".
const char* FrameKindName(uint8_t kind);

// --- raw codec (stateless) --------------------------------------------------

// Serializes a tuple frame. With `remotify` set (the instrumented Send, §4.1)
// the wire kind becomes REMOTE unless the tuple is a SOURCE tuple; the local
// object is never modified.
std::vector<uint8_t> EncodeTupleFrame(const Tuple& t, bool remotify);
std::vector<uint8_t> EncodeWatermarkFrame(int64_t wm);
std::vector<uint8_t> EncodeFlushFrame();
// Serializes `tuples` plus the batch watermark (pass kNoWatermark for none)
// as one frame. Remotification is applied per tuple as in EncodeTupleFrame.
std::vector<uint8_t> EncodeBatchFrame(std::span<const TuplePtr> tuples,
                                      int64_t watermark, bool remotify);

struct DecodedFrame {
  FrameKind kind = FrameKind::kFlush;
  TuplePtr tuple;                // kTuple
  std::vector<TuplePtr> tuples;  // kBatch / kCompactBatch
  int64_t watermark = 0;         // kWatermark / batches (kNoWatermark = none)
};

// Decodes the stateless frame kinds. Throws std::runtime_error /
// std::out_of_range on malformed input, and on a kCompactBatch frame, which
// needs the per-channel state a FrameDecoder carries.
DecodedFrame DecodeFrame(const std::vector<uint8_t>& frame);

// --- compact codec (stateful) -----------------------------------------------

struct UnfoldedTuple;

// The header slots a compact body interleaves: top-level tuples, and the
// derived and origin tuples nested in structural U payloads. Each role keeps
// its own ts/stimulus delta base.
enum class WireRole : uint8_t { kOuter = 0, kDerived = 1, kOrigin = 2 };
inline constexpr size_t kWireRoles = 3;

struct WireDeltas {
  int64_t ts = 0;
  int64_t stimulus = 0;
};

// The wire slice of the unified knob struct, for callers that build a
// FrameEncoder from EngineOptions (edgebench's codec replay). The codec is
// sender-driven: the receiver decodes whatever codec each frame announces,
// so no receive-side configuration exists.
inline WireCodec WireCodecFrom(const EngineOptions& o) {
  return o.wire_codec;
}

// Per-channel wire accounting. raw_bytes is what the raw codec would have
// put on the wire for the same input (for kRaw the two columns are equal),
// so ratio() is the bytes-on-wire win of the configured codec.
struct WireStats {
  uint64_t frames = 0;
  uint64_t raw_bytes = 0;
  uint64_t encoded_bytes = 0;

  double ratio() const {
    return encoded_bytes == 0
               ? 1.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(encoded_bytes);
  }
  WireStats& operator+=(const WireStats& o) {
    frames += o.frames;
    raw_bytes += o.raw_bytes;
    encoded_bytes += o.encoded_bytes;
    return *this;
  }
};

// One per Send node (channels are single-writer, like their operator).
// EncodeBatch returns the frame sequence the raw Send path would have
// produced for the same StreamBatch under kRaw (batch frame, or per-event
// frames for a degenerate batch), and a single kCompactBatch frame under
// kCompact; watermark and flush frames are raw under either codec.
class FrameEncoder {
 public:
  explicit FrameEncoder(WireCodec codec = WireCodec::kRaw) : codec_(codec) {}

  std::vector<std::vector<uint8_t>> EncodeBatch(
      std::span<const TuplePtr> tuples, int64_t watermark, bool remotify);
  std::vector<uint8_t> EncodeTuple(const Tuple& t, bool remotify);
  std::vector<uint8_t> EncodeWatermark(int64_t wm);
  std::vector<uint8_t> EncodeFlush();

  // Drops the dictionaries and delta state and bumps the generation byte, so
  // the stream can resume against a decoder in any state (reconnect).
  void Reset();

  const WireStats& stats() const { return stats_; }

 private:
  std::vector<uint8_t> EncodeCompactBatch(std::span<const Tuple* const> tuples,
                                          int64_t watermark, bool remotify);

  // Each returns the bytes the raw codec spends on what it encoded.
  uint64_t PutTuple(ByteWriter& body, const Tuple& t, TupleKind kind,
                    WireRole role);
  uint64_t PutHeader(ByteWriter& body, const Tuple& t, TupleKind kind,
                     WireRole role);
  uint64_t PutUnfoldedPayload(ByteWriter& body, const UnfoldedTuple& u);

  WireCodec codec_;
  WireStats stats_;

  // Compact-codec state. Descriptor keys pack (type_tag << 16 | wire kind
  // << 8 | has-annotation); uid keys are the high 24 id bits.
  uint8_t generation_ = 0;
  std::unordered_map<uint32_t, uint32_t> desc_index_;
  std::unordered_map<uint32_t, uint32_t> uid_index_;
  std::vector<uint64_t> uid_last_seq_;
  WireDeltas last_[kWireRoles];

  // The derived tuples defined in the frame being encoded: frame-local
  // index and raw-codec bytes, keyed by object identity.
  struct DerivedEntry {
    uint32_t index = 0;
    uint64_t raw_bytes = 0;
  };
  std::unordered_map<const Tuple*, DerivedEntry> frame_derived_;
};

// The receive-side mirror: decodes every frame kind, carrying the compact
// dictionaries across frames and resetting them whenever the generation byte
// moves. Throws std::runtime_error / std::out_of_range on malformed input
// (truncated bodies, dangling dictionary references, unregistered tags,
// oversized declared counts, unknown flags).
class FrameDecoder {
 public:
  DecodedFrame Decode(const std::vector<uint8_t>& frame);

 private:
  DecodedFrame DecodeCompactBatch(const std::vector<uint8_t>& frame);
  TuplePtr GetTuple(ByteReader& body, WireRole role);
  TuplePtr GetUnfoldedPayload(ByteReader& body, int64_t ts);

  struct Descriptor {
    uint16_t tag = 0;
    uint8_t kind = 0;
    bool has_annotation = false;
    PayloadDeserializer fn = nullptr;
  };

  bool have_generation_ = false;
  uint8_t generation_ = 0;
  std::vector<Descriptor> descs_;
  std::vector<uint64_t> uids_;
  std::vector<uint64_t> uid_last_seq_;
  WireDeltas last_[kWireRoles];

  // The derived tuples defined so far in the frame being decoded, by
  // frame-local index. Cleared after every frame so it pins nothing.
  std::vector<TuplePtr> frame_derived_;
};

}  // namespace genealog

#endif  // GENEALOG_NET_FRAME_H_
