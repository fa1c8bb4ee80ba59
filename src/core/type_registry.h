// Polymorphic tuple (de)serialization.
//
// A tuple crossing a Send/Receive boundary is flattened to bytes:
//   u16 type_tag | u8 kind | i64 ts | u64 id | i64 stimulus | payload...
// and rebuilt on the receiving side as a *fresh object* whose meta-attribute
// pointers are null — exactly the property §6 builds on (pointers cannot
// cross processes; only SOURCE/REMOTE typing, ids and payloads survive).
//
// Concrete tuple types self-register via RegisterTupleType, typically through
// an inline namespace-scope registration constant in the schema header, so
// any binary that can name the type can also deserialize it.
#ifndef GENEALOG_CORE_TYPE_REGISTRY_H_
#define GENEALOG_CORE_TYPE_REGISTRY_H_

#include <cstdint>
#include <functional>

#include "common/serialize.h"
#include "core/tuple.h"

namespace genealog {

// Reads the payload (everything after the common header) and returns a fresh
// tuple of the registered type with ts 0; header fields are applied by
// DeserializeTuple.
using PayloadDeserializer = TuplePtr (*)(ByteReader& r, int64_t ts);

// Clones `t`, whose dynamic type is the registered type, without virtual
// dispatch (the CRTP base supplies the implementation: a statically-typed
// copy construction through MakeTuple, with the pool size class resolved at
// compile time). Same contract as Tuple::CloneTuple.
using TupleCloner = TuplePtr (*)(const Tuple& t);

// Registers `tag`. Re-registering the same tag with the same name is a no-op
// (inline registration constants are emitted once per translation unit);
// conflicting registrations abort.
bool RegisterTupleType(uint16_t tag, const char* name, PayloadDeserializer fn,
                       TupleCloner cloner = nullptr);

// The registered same-class cloner for `tag`; null when the tag is unknown
// or was registered without one.
TupleCloner ClonerForTag(uint16_t tag);

// The registered payload deserializer for `tag`; null when the tag is
// unknown. The compact wire codec (net/frame.h) reconstructs tuple headers
// itself and needs direct payload access, where DeserializeTuple expects the
// raw header-plus-payload layout.
PayloadDeserializer DeserializerForTag(uint16_t tag);

// Same-class CloneTuple fast path. Cloning runs of same-typed tuples — a
// Multiplex output chunk, a Router fan-out — normally pays two virtual
// dispatches per copy (type_tag via clone). The cache keys the registered
// direct-call cloner on the tag MakeTuple stamped into the tuple header
// (Tuple::fast_type_tag), resolving it once per distinct tag and reusing it
// while the type stays the same, and falls back to the virtual CloneTuple
// for unstamped or unregistered types. Not thread-safe; keep one per
// operator (operators are single-threaded).
class CloneCache {
 public:
  TuplePtr Clone(const Tuple& t) {
    const uint16_t tag = t.fast_type_tag();
    if (tag == 0) return t.CloneTuple();
    if (tag != tag_) {
      tag_ = tag;
      cloner_ = ClonerForTag(tag);
    }
    return cloner_ != nullptr ? cloner_(t) : t.CloneTuple();
  }

 private:
  uint16_t tag_ = 0;
  TupleCloner cloner_ = nullptr;
};

void SerializeTuple(const Tuple& t, ByteWriter& w);

// The smallest SerializeTuple output: the header (tag, kind, ts, id,
// stimulus) and the annotation flag, with an empty payload. Decoders bound a
// declared tuple count by it before reserving.
inline constexpr size_t kMinSerializedTupleBytes = 2 + 1 + 8 + 8 + 8 + 1;

// Serializes with the kind GeneaLog's instrumented Send uses on the wire:
// REMOTE unless the tuple is a SOURCE tuple (§4.1, Send). The local object is
// left untouched because local provenance graphs may still reference it.
void SerializeTupleForSend(const Tuple& t, ByteWriter& w);

TuplePtr DeserializeTuple(ByteReader& r);

// Well-known type tags. Tests use tags >= 0x7000.
namespace tags {
inline constexpr uint16_t kPositionReport = 1;
inline constexpr uint16_t kStoppedCarStats = 2;
inline constexpr uint16_t kAccidentStats = 3;
inline constexpr uint16_t kMeterReading = 4;
inline constexpr uint16_t kDailyConsumption = 5;
inline constexpr uint16_t kZeroDayCount = 6;
inline constexpr uint16_t kConsumptionDiff = 7;
inline constexpr uint16_t kUnfolded = 8;
inline constexpr uint16_t kBaselineSinkReport = 9;
}  // namespace tags

}  // namespace genealog

#endif  // GENEALOG_CORE_TYPE_REGISTRY_H_
