#include "net/frame.h"

#include <stdexcept>
#include <string>

#include "genealog/unfolded.h"
#include "spe/stream_batch.h"

namespace genealog {
namespace {

// Tuple ids are node uid (high 24 bits) | per-node sequence (low 40 bits);
// see core/instrumentation.h. The compact codec dictionary-codes the uid and
// delta-codes the sequence per uid.
constexpr int kSeqBits = 40;
constexpr uint64_t kSeqMask = (uint64_t{1} << kSeqBits) - 1;

// Raw-codec cost model, for WireStats::raw_bytes under kCompact. Mirrors
// SerializeHeaderAndPayload (type_registry.cc): u16 tag + u8 kind + i64 ts +
// u64 id + i64 stimulus + u8 annotation flag.
constexpr uint64_t kRawTupleHeaderBytes = 28;
constexpr uint64_t kRawWatermarkFrameBytes = 9;  // kind byte + i64
// UnfoldedTuple::SerializePayload's fixed fields ahead of the two nested
// tuples: derived_id, derived_ts, origin_id, origin_ts, origin_kind.
constexpr uint64_t kRawUnfoldedFieldBytes = 8 + 8 + 8 + 8 + 1;

// The one-byte form tag leading every kUnfolded payload in a compact body.
constexpr uint8_t kUnfoldedFormPayload = 0;     // SerializePayload bytes
constexpr uint8_t kUnfoldedFormStructural = 1;  // shared derived + origin

// A U tuple takes the structural form only when the decoder can rebuild it
// exactly: both nested tuples present, neither itself unfolded (bounding the
// recursion), and the redundant fields equal to the nested headers.
bool IsStructural(const UnfoldedTuple& u) {
  const Tuple* d = u.derived.get();
  const Tuple* o = u.origin.get();
  return d != nullptr && o != nullptr && d->type_tag() != tags::kUnfolded &&
         o->type_tag() != tags::kUnfolded && u.derived_id == d->id &&
         u.derived_ts == d->ts && u.origin_id == o->id &&
         u.origin_ts == o->ts && u.origin_kind == o->kind;
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

TupleKind WireKind(const Tuple& t, bool remotify) {
  if (!remotify) return t.kind;
  return t.kind == TupleKind::kSource ? TupleKind::kSource : TupleKind::kRemote;
}

// Compact frame header flags. Bit 0 is reserved.
constexpr uint8_t kFlagHasWatermark = 0x2;

}  // namespace

void PutVarint(ByteWriter& w, uint64_t v) {
  while (v >= 0x80) {
    w.PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.PutU8(static_cast<uint8_t>(v));
}

uint64_t GetVarint(ByteReader& r) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const uint8_t b = r.GetU8();
    if (shift == 63 && (b & 0xFE) != 0) {
      throw std::runtime_error("varint overflows 64 bits");
    }
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw std::runtime_error("varint longer than 10 bytes");
}

void PutZigzag(ByteWriter& w, int64_t v) { PutVarint(w, ZigzagEncode(v)); }

int64_t GetZigzag(ByteReader& r) { return ZigzagDecode(GetVarint(r)); }

const char* FrameKindName(uint8_t kind) {
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kTuple:
      return "tuple";
    case FrameKind::kWatermark:
      return "watermark";
    case FrameKind::kFlush:
      return "flush";
    case FrameKind::kBatch:
      return "batch";
    case FrameKind::kCompactBatch:
      return "compact-batch";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeTupleFrame(const Tuple& t, bool remotify) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(FrameKind::kTuple));
  if (remotify) {
    SerializeTupleForSend(t, w);
  } else {
    SerializeTuple(t, w);
  }
  return w.TakeBytes();
}

std::vector<uint8_t> EncodeWatermarkFrame(int64_t wm) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(FrameKind::kWatermark));
  w.PutI64(wm);
  return w.TakeBytes();
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
    case FrameKind::kTuple:
      out.tuple = DeserializeTuple(r);
      break;
    case FrameKind::kWatermark:
      out.watermark = r.GetI64();
      break;
    case FrameKind::kFlush:
      break;
    case FrameKind::kBatch: {
      const uint32_t count = r.GetU32();
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
    default:
      throw std::runtime_error("unknown frame kind");
  }
  return out;
}

// --- compact codec ----------------------------------------------------------

uint64_t FrameEncoder::PutHeader(ByteWriter& body, const Tuple& t,
                                 TupleKind kind, WireRole role) {
  const auto* ann = t.baseline_annotation();
  const uint32_t desc_key = (static_cast<uint32_t>(t.type_tag()) << 16) |
                            (static_cast<uint32_t>(kind) << 8) |
                            (ann != nullptr ? 1u : 0u);
  auto [desc_it, desc_new] = desc_index_.try_emplace(
      desc_key, static_cast<uint32_t>(desc_index_.size()));
  PutVarint(body,
            (static_cast<uint64_t>(desc_it->second) << 1) | (desc_new ? 1 : 0));
  if (desc_new) {
    body.PutU16(t.type_tag());
    body.PutU8(static_cast<uint8_t>(kind));
    body.PutU8(ann != nullptr ? 1 : 0);
  }

  const uint32_t uid = static_cast<uint32_t>(t.id >> kSeqBits);
  const uint64_t seq = t.id & kSeqMask;
  auto [uid_it, uid_new] =
      uid_index_.try_emplace(uid, static_cast<uint32_t>(uid_index_.size()));
  PutVarint(body,
            (static_cast<uint64_t>(uid_it->second) << 1) | (uid_new ? 1 : 0));
  if (uid_new) {
    PutVarint(body, uid);
    uid_last_seq_.push_back(0);
  }
  uint64_t& last_seq = uid_last_seq_[uid_it->second];
  PutZigzag(body, static_cast<int64_t>(seq) - static_cast<int64_t>(last_seq));
  last_seq = seq;

  WireDeltas& last = last_[static_cast<size_t>(role)];
  PutZigzag(body, t.ts - last.ts);
  last.ts = t.ts;
  PutZigzag(body, t.stimulus - last.stimulus);
  last.stimulus = t.stimulus;

  if (ann == nullptr) return kRawTupleHeaderBytes;
  PutVarint(body, ann->size());
  uint64_t prev = 0;
  for (uint64_t id : *ann) {
    PutZigzag(body, static_cast<int64_t>(id - prev));
    prev = id;
  }
  return kRawTupleHeaderBytes + 4 + 8 * ann->size();
}

uint64_t FrameEncoder::PutTuple(ByteWriter& body, const Tuple& t,
                                TupleKind kind, WireRole role) {
  const uint64_t raw_header = PutHeader(body, t, kind, role);
  if (role == WireRole::kOuter && t.type_tag() == tags::kUnfolded) {
    return raw_header +
           PutUnfoldedPayload(body, static_cast<const UnfoldedTuple&>(t));
  }
  const size_t before = body.size();
  t.SerializePayload(body);
  return raw_header + (body.size() - before);
}

uint64_t FrameEncoder::PutUnfoldedPayload(ByteWriter& body,
                                          const UnfoldedTuple& u) {
  if (!IsStructural(u)) {
    body.PutU8(kUnfoldedFormPayload);
    const size_t before = body.size();
    u.SerializePayload(body);
    return body.size() - before;
  }
  body.PutU8(kUnfoldedFormStructural);
  auto [it, is_new] = frame_derived_.try_emplace(
      u.derived.get(),
      DerivedEntry{static_cast<uint32_t>(frame_derived_.size()), 0});
  DerivedEntry& derived = it->second;
  PutVarint(body, (uint64_t{derived.index} << 1) | (is_new ? 1 : 0));
  if (is_new) {
    derived.raw_bytes =
        PutTuple(body, *u.derived, u.derived->kind, WireRole::kDerived);
  }
  const uint64_t raw_origin =
      PutTuple(body, *u.origin, u.origin->kind, WireRole::kOrigin);
  return kRawUnfoldedFieldBytes + derived.raw_bytes + raw_origin;
}

std::vector<uint8_t> FrameEncoder::EncodeCompactBatch(
    std::span<const Tuple* const> tuples, int64_t watermark, bool remotify) {
  const bool has_wm = watermark != kNoWatermark;
  ByteWriter frame;
  frame.PutU8(static_cast<uint8_t>(FrameKind::kCompactBatch));
  frame.PutU8(generation_);
  frame.PutU8(has_wm ? kFlagHasWatermark : 0);
  PutVarint(frame, tuples.size());
  if (has_wm) PutZigzag(frame, watermark);

  frame_derived_.clear();  // a freed derived's address may be reused
  uint64_t raw_tuple_bytes = 0;
  for (const Tuple* t : tuples) {
    raw_tuple_bytes +=
        PutTuple(frame, *t, WireKind(*t, remotify), WireRole::kOuter);
  }

  // What the raw Send path would have shipped for this StreamBatch: one batch
  // frame, or per-event frames when the batch degenerates.
  uint64_t raw_equiv;
  if (tuples.size() > 1) {
    raw_equiv = 1 + 4 + raw_tuple_bytes + 8;
  } else {
    raw_equiv = (tuples.size() == 1 ? 1 + raw_tuple_bytes : 0) +
                (has_wm ? kRawWatermarkFrameBytes : 0);
  }

  std::vector<uint8_t> out = frame.TakeBytes();
  stats_.frames += 1;
  stats_.raw_bytes += raw_equiv;
  stats_.encoded_bytes += out.size();
  return out;
}

std::vector<std::vector<uint8_t>> FrameEncoder::EncodeBatch(
    std::span<const TuplePtr> tuples, int64_t watermark, bool remotify) {
  const bool has_wm = watermark != kNoWatermark;
  std::vector<std::vector<uint8_t>> frames;
  if (codec_ == WireCodec::kCompact) {
    if (tuples.empty() && !has_wm) return frames;
    std::vector<const Tuple*> ptrs;
    ptrs.reserve(tuples.size());
    for (const TuplePtr& t : tuples) ptrs.push_back(t.get());
    frames.push_back(EncodeCompactBatch(ptrs, watermark, remotify));
    return frames;
  }
  if (tuples.size() > 1) {
    frames.push_back(EncodeBatchFrame(tuples, watermark, remotify));
  } else {
    // Degenerate batches travel as the legacy per-event frames, so a
    // batch-size-1 deployment puts the seed's exact frame sequence on the
    // wire.
    if (tuples.size() == 1) {
      frames.push_back(EncodeTupleFrame(*tuples[0], remotify));
    }
    if (has_wm) frames.push_back(EncodeWatermarkFrame(watermark));
  }
  for (const auto& f : frames) {
    stats_.frames += 1;
    stats_.raw_bytes += f.size();
    stats_.encoded_bytes += f.size();
  }
  return frames;
}

std::vector<uint8_t> FrameEncoder::EncodeTuple(const Tuple& t, bool remotify) {
  if (codec_ == WireCodec::kCompact) {
    const Tuple* ptr = &t;
    return EncodeCompactBatch(std::span<const Tuple* const>(&ptr, 1),
                              kNoWatermark, remotify);
  }
  std::vector<uint8_t> frame = EncodeTupleFrame(t, remotify);
  stats_.frames += 1;
  stats_.raw_bytes += frame.size();
  stats_.encoded_bytes += frame.size();
  return frame;
}

std::vector<uint8_t> FrameEncoder::EncodeWatermark(int64_t wm) {
  // Watermark and flush frames are tiny and stateless; they stay raw under
  // either codec so a decoder can always interpret them.
  std::vector<uint8_t> frame = EncodeWatermarkFrame(wm);
  stats_.frames += 1;
  stats_.raw_bytes += frame.size();
  stats_.encoded_bytes += frame.size();
  return frame;
}

std::vector<uint8_t> FrameEncoder::EncodeFlush() {
  std::vector<uint8_t> frame = EncodeFlushFrame();
  stats_.frames += 1;
  stats_.raw_bytes += frame.size();
  stats_.encoded_bytes += frame.size();
  return frame;
}

void FrameEncoder::Reset() {
  ++generation_;
  desc_index_.clear();
  uid_index_.clear();
  uid_last_seq_.clear();
  for (WireDeltas& d : last_) d = {};
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
    descs_.clear();
    uids_.clear();
    uid_last_seq_.clear();
    for (WireDeltas& d : last_) d = {};
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

  frame_derived_.clear();
  for (uint64_t i = 0; i < count; ++i) {
    out.tuples.push_back(GetTuple(r, WireRole::kOuter));
  }
  frame_derived_.clear();
  if (!r.AtEnd()) {
    throw std::runtime_error("compact frame: trailing bytes");
  }
  return out;
}

TuplePtr FrameDecoder::GetTuple(ByteReader& body, WireRole role) {
  const uint64_t desc_code = GetVarint(body);
  const uint64_t desc_idx = desc_code >> 1;
  if ((desc_code & 1) != 0) {
    if (desc_idx != descs_.size()) {
      throw std::runtime_error("compact frame: non-contiguous descriptor");
    }
    Descriptor d;
    d.tag = body.GetU16();
    d.kind = body.GetU8();
    d.has_annotation = body.GetU8() != 0;
    d.fn = DeserializerForTag(d.tag);
    if (d.fn == nullptr) {
      throw std::runtime_error("unregistered tuple type tag " +
                               std::to_string(d.tag));
    }
    descs_.push_back(d);
  } else if (desc_idx >= descs_.size()) {
    throw std::runtime_error("compact frame: dangling descriptor reference");
  }
  // A copy: a nested header below may append to descs_.
  const Descriptor desc = descs_[static_cast<size_t>(desc_idx)];
  const bool unfolded = desc.tag == tags::kUnfolded;
  if (unfolded && role != WireRole::kOuter) {
    throw std::runtime_error("compact frame: nested unfolded tuple");
  }

  const uint64_t uid_code = GetVarint(body);
  const uint64_t uid_idx = uid_code >> 1;
  if ((uid_code & 1) != 0) {
    if (uid_idx != uids_.size()) {
      throw std::runtime_error("compact frame: non-contiguous uid entry");
    }
    uids_.push_back(GetVarint(body));
    uid_last_seq_.push_back(0);
  } else if (uid_idx >= uids_.size()) {
    throw std::runtime_error("compact frame: dangling uid reference");
  }
  uint64_t& last_seq = uid_last_seq_[static_cast<size_t>(uid_idx)];
  const uint64_t seq =
      static_cast<uint64_t>(static_cast<int64_t>(last_seq) + GetZigzag(body));
  last_seq = seq;
  const uint64_t id = (uids_[static_cast<size_t>(uid_idx)] << kSeqBits) | seq;
  WireDeltas& last = last_[static_cast<size_t>(role)];
  last.ts += GetZigzag(body);
  last.stimulus += GetZigzag(body);
  const int64_t ts = last.ts;
  const int64_t stimulus = last.stimulus;

  std::vector<uint64_t> annotation;
  if (desc.has_annotation) {
    const uint64_t n = GetVarint(body);
    if (n > body.remaining()) {  // each entry is >= 1 byte
      throw std::runtime_error("compact frame: annotation count too large");
    }
    annotation.reserve(static_cast<size_t>(n));
    uint64_t prev = 0;
    for (uint64_t j = 0; j < n; ++j) {
      prev += static_cast<uint64_t>(GetZigzag(body));
      annotation.push_back(prev);
    }
  }

  TuplePtr t = unfolded ? GetUnfoldedPayload(body, ts) : desc.fn(body, ts);
  t->kind = static_cast<TupleKind>(desc.kind);
  t->id = id;
  t->stimulus = stimulus;
  if (desc.has_annotation) t->set_baseline_annotation(std::move(annotation));
  return t;
}

TuplePtr FrameDecoder::GetUnfoldedPayload(ByteReader& body, int64_t ts) {
  const uint8_t form = body.GetU8();
  if (form == kUnfoldedFormPayload) return UnfoldedTuple::Deserialize(body, ts);
  if (form != kUnfoldedFormStructural) {
    throw std::runtime_error("compact frame: unknown unfolded form " +
                             std::to_string(form));
  }
  auto u = MakeTuple<UnfoldedTuple>(ts);
  const uint64_t code = GetVarint(body);
  const uint64_t index = code >> 1;
  if ((code & 1) != 0) {
    if (index != frame_derived_.size()) {
      throw std::runtime_error("compact frame: non-contiguous derived tuple");
    }
    frame_derived_.push_back(GetTuple(body, WireRole::kDerived));
  } else if (index >= frame_derived_.size()) {
    throw std::runtime_error("compact frame: dangling derived reference");
  }
  u->derived = frame_derived_[static_cast<size_t>(index)];
  u->origin = GetTuple(body, WireRole::kOrigin);
  u->derived_id = u->derived->id;
  u->derived_ts = u->derived->ts;
  u->origin_id = u->origin->id;
  u->origin_ts = u->origin->ts;
  u->origin_kind = u->origin->kind;
  return u;
}

}  // namespace genealog
