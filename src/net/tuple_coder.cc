#include "net/tuple_coder.h"

#include <stdexcept>
#include <string>

#include "genealog/unfolded.h"

namespace genealog {
namespace {

// Raw-codec cost model, for the wire accounting. Mirrors
// SerializeHeaderAndPayload (type_registry.cc): u16 tag + u8 kind + i64 ts +
// u64 id + i64 stimulus + u8 annotation flag.
constexpr uint64_t kRawTupleHeaderBytes = 28;
// UnfoldedTuple::SerializePayload's fixed fields ahead of the two nested
// tuples: derived_id, derived_ts, origin_id, origin_ts, origin_kind.
constexpr uint64_t kRawUnfoldedFieldBytes = 8 + 8 + 8 + 8 + 1;

// The one-byte form tag leading every outer kUnfolded payload.
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

[[noreturn]] void Malformed(const std::string& what) {
  throw std::runtime_error("compact tuple: " + what);
}

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

// --- encoder ----------------------------------------------------------------

uint64_t CompactTupleEncoder::PutHeader(ByteWriter& out, const Tuple& t,
                                        TupleKind kind, WireRole role) {
  const auto* ann = t.baseline_annotation();
  const uint32_t desc_key = (static_cast<uint32_t>(t.type_tag()) << 16) |
                            (static_cast<uint32_t>(kind) << 8) |
                            (ann != nullptr ? 1u : 0u);
  auto [desc_it, desc_new] = desc_index_.try_emplace(
      desc_key, static_cast<uint32_t>(desc_index_.size()));
  PutVarint(out,
            (static_cast<uint64_t>(desc_it->second) << 1) | (desc_new ? 1 : 0));
  if (desc_new) {
    out.PutU16(t.type_tag());
    out.PutU8(static_cast<uint8_t>(kind));
    out.PutU8(ann != nullptr ? 1 : 0);
  }

  const uint32_t uid = static_cast<uint32_t>(NodeUidOf(t.id));
  const uint64_t seq = t.id & kTupleSeqMask;
  auto [uid_it, uid_new] =
      uid_index_.try_emplace(uid, static_cast<uint32_t>(uid_index_.size()));
  PutVarint(out,
            (static_cast<uint64_t>(uid_it->second) << 1) | (uid_new ? 1 : 0));
  if (uid_new) {
    PutVarint(out, uid);
    uid_last_seq_.push_back(0);
  }
  uint64_t& last_seq = uid_last_seq_[uid_it->second];
  PutZigzag(out, static_cast<int64_t>(seq) - static_cast<int64_t>(last_seq));
  last_seq = seq;

  WireDeltas& last = last_[static_cast<size_t>(role)];
  PutZigzag(out, t.ts - last.ts);
  last.ts = t.ts;
  PutZigzag(out, t.stimulus - last.stimulus);
  last.stimulus = t.stimulus;

  if (ann == nullptr) return kRawTupleHeaderBytes;
  PutVarint(out, ann->size());
  uint64_t prev = 0;
  for (uint64_t id : *ann) {
    PutZigzag(out, static_cast<int64_t>(id - prev));
    prev = id;
  }
  return kRawTupleHeaderBytes + 4 + 8 * ann->size();
}

uint64_t CompactTupleEncoder::Put(ByteWriter& out, const Tuple& t,
                                  TupleKind kind, WireRole role) {
  const uint64_t raw_header = PutHeader(out, t, kind, role);
  if (role == WireRole::kOuter && t.type_tag() == tags::kUnfolded) {
    return raw_header +
           PutUnfoldedPayload(out, static_cast<const UnfoldedTuple&>(t));
  }
  const size_t before = out.size();
  t.SerializePayload(out);
  return raw_header + (out.size() - before);
}

uint64_t CompactTupleEncoder::PutUnfoldedPayload(ByteWriter& out,
                                                 const UnfoldedTuple& u) {
  if (!IsStructural(u)) {
    out.PutU8(kUnfoldedFormPayload);
    const size_t before = out.size();
    u.SerializePayload(out);
    return out.size() - before;
  }
  out.PutU8(kUnfoldedFormStructural);
  auto [it, is_new] = frame_derived_.try_emplace(
      u.derived.get(),
      DerivedEntry{static_cast<uint32_t>(frame_derived_.size()), 0});
  DerivedEntry& derived = it->second;
  PutVarint(out, (uint64_t{derived.index} << 1) | (is_new ? 1 : 0));
  if (is_new) {
    derived.raw_bytes =
        Put(out, *u.derived, u.derived->kind, WireRole::kDerived);
  }
  const uint64_t raw_origin =
      Put(out, *u.origin, u.origin->kind, WireRole::kOrigin);
  return kRawUnfoldedFieldBytes + derived.raw_bytes + raw_origin;
}

void CompactTupleEncoder::Reset() {
  desc_index_.clear();
  uid_index_.clear();
  uid_last_seq_.clear();
  for (WireDeltas& d : last_) d = {};
  frame_derived_.clear();
}

// --- decoder ----------------------------------------------------------------

TuplePtr CompactTupleDecoder::Get(ByteReader& in, WireRole role) {
  const uint64_t desc_code = GetVarint(in);
  const uint64_t desc_idx = desc_code >> 1;
  if ((desc_code & 1) != 0) {
    if (desc_idx != descs_.size()) Malformed("non-contiguous descriptor");
    Descriptor d;
    d.tag = in.GetU16();
    d.kind = TupleKindFromWire(in.GetU8());
    d.has_annotation = in.GetU8() != 0;
    d.fn = DeserializerForTag(d.tag);
    if (d.fn == nullptr) {
      throw std::runtime_error("unregistered tuple type tag " +
                               std::to_string(d.tag));
    }
    descs_.push_back(d);
  } else if (desc_idx >= descs_.size()) {
    Malformed("dangling descriptor reference");
  }
  // A copy: a nested header below may append to descs_.
  const Descriptor desc = descs_[static_cast<size_t>(desc_idx)];
  const bool unfolded = desc.tag == tags::kUnfolded;
  if (unfolded && role != WireRole::kOuter) Malformed("nested unfolded tuple");

  const uint64_t uid_code = GetVarint(in);
  const uint64_t uid_idx = uid_code >> 1;
  if ((uid_code & 1) != 0) {
    if (uid_idx != uids_.size()) Malformed("non-contiguous uid entry");
    uids_.push_back(GetVarint(in));
    uid_last_seq_.push_back(0);
  } else if (uid_idx >= uids_.size()) {
    Malformed("dangling uid reference");
  }
  uint64_t& last_seq = uid_last_seq_[static_cast<size_t>(uid_idx)];
  const uint64_t seq =
      static_cast<uint64_t>(static_cast<int64_t>(last_seq) + GetZigzag(in));
  last_seq = seq;
  const uint64_t id =
      (uids_[static_cast<size_t>(uid_idx)] << kTupleSeqBits) | seq;
  WireDeltas& last = last_[static_cast<size_t>(role)];
  last.ts += GetZigzag(in);
  last.stimulus += GetZigzag(in);
  const int64_t ts = last.ts;
  const int64_t stimulus = last.stimulus;

  std::vector<uint64_t> annotation;
  if (desc.has_annotation) {
    const uint64_t n = GetVarint(in);
    if (n > in.remaining()) {  // each entry is >= 1 byte
      Malformed("annotation count too large");
    }
    annotation.reserve(static_cast<size_t>(n));
    uint64_t prev = 0;
    for (uint64_t j = 0; j < n; ++j) {
      prev += static_cast<uint64_t>(GetZigzag(in));
      annotation.push_back(prev);
    }
  }

  TuplePtr t = unfolded ? GetUnfoldedPayload(in, ts) : desc.fn(in, ts);
  t->kind = desc.kind;
  t->id = id;
  t->stimulus = stimulus;
  if (desc.has_annotation) t->set_baseline_annotation(std::move(annotation));
  return t;
}

TuplePtr CompactTupleDecoder::GetUnfoldedPayload(ByteReader& in, int64_t ts) {
  const uint8_t form = in.GetU8();
  if (form == kUnfoldedFormPayload) return UnfoldedTuple::Deserialize(in, ts);
  if (form != kUnfoldedFormStructural) {
    Malformed("unknown unfolded form " + std::to_string(form));
  }
  auto u = MakeTuple<UnfoldedTuple>(ts);
  const uint64_t code = GetVarint(in);
  const uint64_t index = code >> 1;
  if ((code & 1) != 0) {
    if (index != frame_derived_.size()) {
      Malformed("non-contiguous derived tuple");
    }
    frame_derived_.push_back(Get(in, WireRole::kDerived));
  } else if (index >= frame_derived_.size()) {
    Malformed("dangling derived reference");
  }
  u->derived = frame_derived_[static_cast<size_t>(index)];
  u->origin = Get(in, WireRole::kOrigin);
  u->derived_id = u->derived->id;
  u->derived_ts = u->derived->ts;
  u->origin_id = u->origin->id;
  u->origin_ts = u->origin->ts;
  u->origin_kind = u->origin->kind;
  return u;
}

void CompactTupleDecoder::Reset() {
  descs_.clear();
  uids_.clear();
  uid_last_seq_.clear();
  for (WireDeltas& d : last_) d = {};
  frame_derived_.clear();
}

}  // namespace genealog
