// Wire frames for Send/Receive channels.
//
// A frame is one self-contained message: a batch of tuples plus an optional
// trailing watermark (the batched data plane's unit), a flush (the one way a
// channel ends), or a pull request. Channels transport frames as opaque
// byte blobs; the TCP transport adds a u32 length prefix per frame.
//
// Every channel the engine builds carries compact batch frames
// (FrameKind::kCompactBatch): a frame header (below) and then the batch's
// tuples through the compact tuple coder (net/tuple_coder.h, which
// describes the tuple encoding: dictionary-coded descriptors and node uids,
// per-uid sequence deltas, per-role ts/stimulus deltas, and a structural
// payload for unfolded U tuples that ships each shared derived tuple once
// per frame). The coder's dictionaries and delta bases carry across the
// frames of one channel; its interned derived tuples do not.
//
// Each compact frame leads with a generation byte; FrameEncoder::Reset()
// bumps it (reconnect, new stream incarnation), and a decoder seeing an
// unexpected generation drops its dictionaries and delta state before
// decoding — reset-safe because the first post-reset frame redefines every
// entry it uses.
//
// The compact path is stateful on both sides, hence the FrameEncoder /
// FrameDecoder classes. The raw codec (FrameKind::kBatch, one fixed-width
// serialized tuple after another) is FrameEncoder's reference codec: tests
// and the codec bench decode both and compare, and WireStats counts what
// raw would have shipped. Flush frames are one kind byte under either.
//
// Request frames (FrameKind::kRequest) travel the reverse direction of a
// pull-based U channel (genealog/pull.h): the ids of the delivering tuples
// the provenance instance needs unfolded, each with its ts, plus the
// requester's watermark, delta-coded within the frame and stateless across
// frames.
#ifndef GENEALOG_NET_FRAME_H_
#define GENEALOG_NET_FRAME_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/engine_options.h"
#include "common/serialize.h"
#include "core/type_registry.h"
#include "net/tuple_coder.h"

namespace genealog {

// Largest frame a channel carries; TcpChannel rejects a longer length prefix
// and the request decoder a longer declared id list.
inline constexpr size_t kMaxFrameBytes = size_t{64} << 20;

// Kinds 1 and 2 (a lone tuple, a lone watermark) are retired; a decoder
// rejects them as unknown.
enum class FrameKind : uint8_t {
  kFlush = 3,
  // A StreamBatch: u32 tuple count, the tuples, and an i64 high-watermark
  // (INT64_MIN when the batch carries none). One frame per batch keeps the
  // per-message framing and syscall costs amortized across the chunk.
  kBatch = 4,
  // A StreamBatch under the compact codec:
  //   u8 kind | u8 generation | u8 flags | body
  // flags bit 1 = the batch carries a watermark; every other bit is reserved
  // and rejected. The body is varint tuple count | [zigzag watermark] |
  // the tuples through the compact tuple coder (net/tuple_coder.h).
  kCompactBatch = 5,
  // A pull request (reverse direction only):
  //   u8 kind | u8 flags | varint count | [zigzag watermark]
  //   | count x (zigzag id delta | zigzag ts delta)
  // with deltas against the previous entry of the frame (first against 0).
  // flags bit 0 is always set (it marks the compact body; the fixed-width
  // body it once told apart is gone), bit 1 = the request carries a
  // watermark; a clear bit 0 and every other bit are rejected.
  kRequest = 6,
};

// Human-readable frame kind, for error messages ("corrupt batch frame").
// Unknown values name themselves "unknown".
const char* FrameKindName(uint8_t kind);

// --- stateless frames -------------------------------------------------------

std::vector<uint8_t> EncodeFlushFrame();
// The raw reference codec: serializes `tuples` plus the batch watermark
// (pass kNoWatermark for none) as one kBatch frame. With `remotify` set (the
// instrumented Send, §4.1) each tuple's wire kind becomes REMOTE unless it
// is a SOURCE tuple; the local objects are never modified.
std::vector<uint8_t> EncodeBatchFrame(std::span<const TuplePtr> tuples,
                                      int64_t watermark, bool remotify);

struct DecodedFrame {
  FrameKind kind = FrameKind::kFlush;
  std::vector<TuplePtr> tuples;  // kBatch / kCompactBatch
  int64_t watermark = std::numeric_limits<int64_t>::min();  // = kNoWatermark
};

// Decodes the stateless frame kinds (kBatch, kFlush). Throws
// std::runtime_error / std::out_of_range on malformed input, and on a
// kCompactBatch frame, which needs the per-channel state a FrameDecoder
// carries.
DecodedFrame DecodeFrame(const std::vector<uint8_t>& frame);

// --- pull requests (stateless) ----------------------------------------------

// One requested delivering tuple: its id and ts (the origin_ts the derived
// U tuple carried for it).
struct PullRequestEntry {
  uint64_t id = 0;
  int64_t ts = 0;
  bool operator==(const PullRequestEntry&) const = default;
};

struct PullRequest {
  std::vector<PullRequestEntry> entries;
  int64_t watermark = std::numeric_limits<int64_t>::min();  // = kNoWatermark
  bool operator==(const PullRequest&) const = default;
};

// Encodes `request` as one kRequest frame.
std::vector<uint8_t> EncodeRequestFrame(const PullRequest& request);
// Size of `request` in a fixed-width layout (u8 kind | u8 flags | u32 count
// | count x (u64 id | i64 ts) | [i64 watermark]), for WireStats::raw_bytes.
uint64_t RawRequestFrameBytes(const PullRequest& request);
// Decodes a kRequest frame. Throws std::runtime_error naming the defect
// ("request frame: ...") on a wrong kind byte, a reserved flag bit, a
// declared count past the kMaxFrameBytes bound, a truncated id list, or
// trailing bytes.
PullRequest DecodeRequestFrame(const std::vector<uint8_t>& frame);

// --- batch codecs (stateful) -------------------------------------------------

// The engine's codec, for callers that build a FrameEncoder from
// EngineOptions (edgebench's codec replay).
inline WireCodec WireCodecFrom(const EngineOptions& o) {
  return o.wire_codec;
}

// Per-channel wire accounting. raw_bytes is what the raw codec would have
// put on the wire for the same input (for kRaw the two columns are equal),
// so ratio() is the bytes-on-wire win of the compact codec.
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
// EncodeBatch returns one frame per StreamBatch — kCompactBatch under
// kCompact, kBatch under the kRaw reference codec — and none for an empty
// batch without a watermark.
class FrameEncoder {
 public:
  explicit FrameEncoder(WireCodec codec = WireCodec::kCompact)
      : codec_(codec) {}

  std::vector<std::vector<uint8_t>> EncodeBatch(
      std::span<const TuplePtr> tuples, int64_t watermark, bool remotify);
  std::vector<uint8_t> EncodeFlush();

  // Drops the dictionaries and delta state and bumps the generation byte, so
  // the stream can resume against a decoder in any state (reconnect).
  void Reset();

  const WireStats& stats() const { return stats_; }

 private:
  std::vector<uint8_t> EncodeCompactBatch(std::span<const TuplePtr> tuples,
                                          int64_t watermark, bool remotify);
  void Count(const std::vector<uint8_t>& frame, uint64_t raw_bytes);

  WireCodec codec_;
  WireStats stats_;
  uint8_t generation_ = 0;
  CompactTupleEncoder coder_;
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

  bool have_generation_ = false;
  uint8_t generation_ = 0;
  CompactTupleDecoder coder_;
};

}  // namespace genealog

#endif  // GENEALOG_NET_FRAME_H_
