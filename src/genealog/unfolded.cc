#include "genealog/unfolded.h"

namespace genealog {

void UnfoldedTuple::SerializePayload(ByteWriter& w) const {
  w.PutU64(derived_id);
  w.PutI64(derived_ts);
  w.PutU64(origin_id);
  w.PutI64(origin_ts);
  w.PutU8(static_cast<uint8_t>(origin_kind));
  SerializeTuple(*derived, w);
  SerializeTuple(*origin, w);
}

TuplePtr UnfoldedTuple::Deserialize(ByteReader& r, int64_t ts) {
  auto t = MakeTuple<UnfoldedTuple>(ts);
  t->derived_id = r.GetU64();
  t->derived_ts = r.GetI64();
  t->origin_id = r.GetU64();
  t->origin_ts = r.GetI64();
  t->origin_kind = TupleKindFromWire(r.GetU8());
  t->derived = DeserializeTuple(r);
  t->origin = DeserializeTuple(r);
  return t;
}

std::string UnfoldedTuple::DebugPayload() const {
  std::string s = "derived{";
  s += derived != nullptr ? derived->DebugPayload() : "?";
  s += "} origin{";
  s += origin != nullptr ? origin->DebugPayload() : "?";
  s += "}";
  return s;
}

}  // namespace genealog
