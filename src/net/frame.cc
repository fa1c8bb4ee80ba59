#include "net/frame.h"

#include <stdexcept>
#include <string>

#include "spe/stream_batch.h"

namespace genealog {
namespace {

// u8 kind | u32 count | tuples | i64 watermark.
constexpr uint64_t kRawBatchFrameOverhead = 1 + 4 + 8;

TupleKind WireKind(const Tuple& t, bool remotify) {
  if (!remotify) return t.kind;
  return t.kind == TupleKind::kSource ? TupleKind::kSource : TupleKind::kRemote;
}

// Compact frame header flags. Bit 0 is reserved.
constexpr uint8_t kFlagHasWatermark = 0x2;

}  // namespace

const char* FrameKindName(uint8_t kind) {
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kFlush:
      return "flush";
    case FrameKind::kBatch:
      return "batch";
    case FrameKind::kCompactBatch:
      return "compact-batch";
    case FrameKind::kRequest:
      return "request";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeFlushFrame() {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(FrameKind::kFlush));
  return w.TakeBytes();
}

std::vector<uint8_t> EncodeBatchFrame(std::span<const TuplePtr> tuples,
                                      int64_t watermark, bool remotify) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(FrameKind::kBatch));
  w.PutU32(static_cast<uint32_t>(tuples.size()));
  for (const TuplePtr& t : tuples) {
    if (remotify) {
      SerializeTupleForSend(*t, w);
    } else {
      SerializeTuple(*t, w);
    }
  }
  w.PutI64(watermark);
  return w.TakeBytes();
}

DecodedFrame DecodeFrame(const std::vector<uint8_t>& frame) {
  ByteReader r(frame);
  DecodedFrame out;
  out.kind = static_cast<FrameKind>(r.GetU8());
  switch (out.kind) {
    case FrameKind::kFlush:
      break;
    case FrameKind::kBatch: {
      const uint32_t count = r.GetU32();
      if (count > r.remaining() / kMinSerializedTupleBytes) {
        throw std::runtime_error("batch frame: declared count too large");
      }
      out.tuples.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        out.tuples.push_back(DeserializeTuple(r));
      }
      out.watermark = r.GetI64();
      break;
    }
    case FrameKind::kCompactBatch:
      throw std::runtime_error(
          "compact-batch frame needs a stateful FrameDecoder");
    case FrameKind::kRequest:
      throw std::runtime_error(
          "request frame on a forward stream (DecodeRequestFrame reads it)");
    default:
      throw std::runtime_error("unknown frame kind");
  }
  return out;
}

// --- pull requests ----------------------------------------------------------

namespace {

constexpr uint8_t kRequestFlagCompact = 0x1;
constexpr uint8_t kRequestFlagHasWatermark = 0x2;
constexpr uint64_t kRawRequestEntryBytes = 8 + 8;
constexpr uint64_t kMinRequestEntryBytes = 2;

[[noreturn]] void RequestError(const std::string& what) {
  throw std::runtime_error("request frame: " + what);
}

}  // namespace

std::vector<uint8_t> EncodeRequestFrame(const PullRequest& request) {
  const bool has_wm = request.watermark != kNoWatermark;
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(FrameKind::kRequest));
  w.PutU8(kRequestFlagCompact | (has_wm ? kRequestFlagHasWatermark : 0));
  PutVarint(w, request.entries.size());
  if (has_wm) PutZigzag(w, request.watermark);
  PullRequestEntry prev;
  for (const PullRequestEntry& e : request.entries) {
    // Wrapping (unsigned) deltas: any id or ts pair round-trips.
    PutZigzag(w, static_cast<int64_t>(e.id - prev.id));
    PutZigzag(w, static_cast<int64_t>(static_cast<uint64_t>(e.ts) -
                                      static_cast<uint64_t>(prev.ts)));
    prev = e;
  }
  return w.TakeBytes();
}

uint64_t RawRequestFrameBytes(const PullRequest& request) {
  return 1 + 1 + 4 + kRawRequestEntryBytes * request.entries.size() +
         (request.watermark != kNoWatermark ? 8 : 0);
}

PullRequest DecodeRequestFrame(const std::vector<uint8_t>& frame) {
  ByteReader r(frame);
  PullRequest out;
  try {
    if (r.GetU8() != static_cast<uint8_t>(FrameKind::kRequest)) {
      RequestError("wrong frame kind");
    }
    const uint8_t flags = r.GetU8();
    if ((flags & ~(kRequestFlagCompact | kRequestFlagHasWatermark)) != 0) {
      RequestError("reserved flag bits set");
    }
    if ((flags & kRequestFlagCompact) == 0) {
      RequestError("fixed-width body is not supported");
    }
    // An entry costs at least 2 bytes: a count whose entries could not fit
    // a frame is malformed, rejected before anything is reserved for it.
    const uint64_t count = GetVarint(r);
    if (count > kMaxFrameBytes / kMinRequestEntryBytes) {
      RequestError("declared count " + std::to_string(count) +
                   " is past the 64 MiB frame bound");
    }
    if (count * kMinRequestEntryBytes > r.remaining()) {
      RequestError("truncated id list (" + std::to_string(count) +
                   " entries declared)");
    }
    out.entries.reserve(static_cast<size_t>(count));
    if ((flags & kRequestFlagHasWatermark) != 0) out.watermark = GetZigzag(r);
    PullRequestEntry prev;
    for (uint64_t i = 0; i < count; ++i) {
      PullRequestEntry e;
      e.id = prev.id + static_cast<uint64_t>(GetZigzag(r));
      e.ts = static_cast<int64_t>(static_cast<uint64_t>(prev.ts) +
                                  static_cast<uint64_t>(GetZigzag(r)));
      out.entries.push_back(e);
      prev = e;
    }
  } catch (const std::out_of_range&) {
    RequestError("truncated id list");
  }
  if (!r.AtEnd()) RequestError("trailing bytes");
  return out;
}

// --- compact codec ----------------------------------------------------------

std::vector<uint8_t> FrameEncoder::EncodeCompactBatch(
    std::span<const TuplePtr> tuples, int64_t watermark, bool remotify) {
  const bool has_wm = watermark != kNoWatermark;
  ByteWriter frame;
  frame.PutU8(static_cast<uint8_t>(FrameKind::kCompactBatch));
  frame.PutU8(generation_);
  frame.PutU8(has_wm ? kFlagHasWatermark : 0);
  PutVarint(frame, tuples.size());
  if (has_wm) PutZigzag(frame, watermark);

  uint64_t raw_tuple_bytes = 0;
  for (const TuplePtr& t : tuples) {
    raw_tuple_bytes +=
        coder_.Put(frame, *t, WireKind(*t, remotify), WireRole::kOuter);
  }
  coder_.EndFrame();

  std::vector<uint8_t> out = frame.TakeBytes();
  Count(out, kRawBatchFrameOverhead + raw_tuple_bytes);
  return out;
}

std::vector<std::vector<uint8_t>> FrameEncoder::EncodeBatch(
    std::span<const TuplePtr> tuples, int64_t watermark, bool remotify) {
  std::vector<std::vector<uint8_t>> frames;
  if (tuples.empty() && watermark == kNoWatermark) return frames;
  if (codec_ == WireCodec::kCompact) {
    frames.push_back(EncodeCompactBatch(tuples, watermark, remotify));
  } else {
    frames.push_back(EncodeBatchFrame(tuples, watermark, remotify));
    Count(frames.back(), frames.back().size());
  }
  return frames;
}

std::vector<uint8_t> FrameEncoder::EncodeFlush() {
  std::vector<uint8_t> frame = EncodeFlushFrame();
  Count(frame, frame.size());
  return frame;
}

void FrameEncoder::Count(const std::vector<uint8_t>& frame,
                         uint64_t raw_bytes) {
  stats_.frames += 1;
  stats_.raw_bytes += raw_bytes;
  stats_.encoded_bytes += frame.size();
}

void FrameEncoder::Reset() {
  ++generation_;
  coder_.Reset();
}

DecodedFrame FrameDecoder::Decode(const std::vector<uint8_t>& frame) {
  if (frame.empty()) throw std::runtime_error("empty frame");
  if (static_cast<FrameKind>(frame[0]) == FrameKind::kCompactBatch) {
    return DecodeCompactBatch(frame);
  }
  return DecodeFrame(frame);
}

DecodedFrame FrameDecoder::DecodeCompactBatch(
    const std::vector<uint8_t>& frame) {
  ByteReader r(frame);
  r.GetU8();  // kind, already dispatched on
  const uint8_t generation = r.GetU8();
  if (!have_generation_ || generation != generation_) {
    // New stream incarnation: the sender redefines every dictionary entry it
    // uses after a Reset, so dropping state here is always safe.
    have_generation_ = true;
    generation_ = generation;
    coder_.Reset();
  }
  const uint8_t flags = r.GetU8();
  if ((flags & ~kFlagHasWatermark) != 0) {
    throw std::runtime_error("compact frame: unknown flags");
  }

  const uint64_t count = GetVarint(r);
  // Every encoded tuple costs at least one body byte, so a count beyond the
  // remaining bytes is malformed — reject before reserving for it.
  if (count > r.remaining()) {
    throw std::runtime_error("compact frame: declared count too large");
  }
  DecodedFrame out;
  out.kind = FrameKind::kCompactBatch;
  out.watermark =
      (flags & kFlagHasWatermark) != 0 ? GetZigzag(r) : kNoWatermark;
  out.tuples.reserve(static_cast<size_t>(count));

  coder_.EndFrame();  // a frame that threw may have left some behind
  for (uint64_t i = 0; i < count; ++i) {
    out.tuples.push_back(coder_.Get(r, WireRole::kOuter));
  }
  coder_.EndFrame();
  if (!r.AtEnd()) {
    throw std::runtime_error("compact frame: trailing bytes");
  }
  return out;
}

}  // namespace genealog
