#include "core/type_registry.h"

#include <gtest/gtest.h>

#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::KeyedTuple;
using testing::V;
using testing::ValueTuple;

TEST(TypeRegistryTest, RoundTripsValueTuple) {
  auto t = V(123, -456);
  t->id = 0xABCDEF;
  t->stimulus = 999;
  t->kind = TupleKind::kAggregate;

  ByteWriter w;
  SerializeTuple(*t, w);
  ByteReader r(w.bytes());
  TuplePtr back = DeserializeTuple(r);

  ASSERT_EQ(back->type_tag(), ValueTuple::kTypeTag);
  EXPECT_EQ(back->ts, 123);
  EXPECT_EQ(back->id, 0xABCDEFu);
  EXPECT_EQ(back->stimulus, 999);
  EXPECT_EQ(back->kind, TupleKind::kAggregate);
  EXPECT_EQ(static_cast<ValueTuple*>(back.get())->value, -456);
  EXPECT_TRUE(r.AtEnd());
}

TEST(TypeRegistryTest, RoundTripsKeyedTuple) {
  auto t = MakeTuple<KeyedTuple>(7, 42, 2.718);
  ByteWriter w;
  SerializeTuple(*t, w);
  ByteReader r(w.bytes());
  TuplePtr back = DeserializeTuple(r);
  auto* k = static_cast<KeyedTuple*>(back.get());
  EXPECT_EQ(k->key, 42);
  EXPECT_DOUBLE_EQ(k->value, 2.718);
}

TEST(TypeRegistryTest, DeserializedTupleHasNoMetaPointers) {
  auto parent = V(1, 1);
  auto t = V(2, 2);
  t->set_u1(parent.get());
  t->try_set_next(parent.get());
  ByteWriter w;
  SerializeTuple(*t, w);
  ByteReader r(w.bytes());
  TuplePtr back = DeserializeTuple(r);
  // Pointers never cross a serialization boundary (§6).
  EXPECT_EQ(back->u1(), nullptr);
  EXPECT_EQ(back->u2(), nullptr);
  EXPECT_EQ(back->next(), nullptr);
}

TEST(TypeRegistryTest, SendKindRemotifiesNonSourceTuples) {
  auto t = V(1, 1);
  t->kind = TupleKind::kAggregate;
  ByteWriter w;
  SerializeTupleForSend(*t, w);
  ByteReader r(w.bytes());
  TuplePtr back = DeserializeTuple(r);
  EXPECT_EQ(back->kind, TupleKind::kRemote);
  // The local object is untouched — local provenance graphs still need it.
  EXPECT_EQ(t->kind, TupleKind::kAggregate);
}

TEST(TypeRegistryTest, SendKindPreservesSourceTuples) {
  auto t = V(1, 1);
  t->kind = TupleKind::kSource;
  ByteWriter w;
  SerializeTupleForSend(*t, w);
  ByteReader r(w.bytes());
  EXPECT_EQ(DeserializeTuple(r)->kind, TupleKind::kSource);
}

TEST(TypeRegistryTest, SendKindRemotifiesEveryCreatedKind) {
  for (TupleKind kind : {TupleKind::kMap, TupleKind::kMultiplex,
                         TupleKind::kJoin, TupleKind::kRemote}) {
    auto t = V(1, 1);
    t->kind = kind;
    ByteWriter w;
    SerializeTupleForSend(*t, w);
    ByteReader r(w.bytes());
    EXPECT_EQ(DeserializeTuple(r)->kind, TupleKind::kRemote);
  }
}

TEST(TypeRegistryTest, UnknownTagThrows) {
  ByteWriter w;
  w.PutU16(0x6FFF);  // unregistered tag
  w.PutU8(0);        // kind
  w.PutI64(0);       // ts
  w.PutU64(0);       // id
  w.PutI64(0);       // stimulus
  w.PutU8(0);        // no annotation
  ByteReader r(w.bytes());
  EXPECT_THROW(DeserializeTuple(r), std::runtime_error);
}

TEST(TypeRegistryTest, TruncatedPayloadThrows) {
  auto t = V(1, 99);
  ByteWriter w;
  SerializeTuple(*t, w);
  auto bytes = w.bytes();
  bytes.resize(bytes.size() - 4);  // cut into the payload
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_THROW(DeserializeTuple(r), std::out_of_range);
}

// An annotation count the input cannot hold is reported as truncation
// before anything is reserved for it (not std::bad_alloc).
TEST(TypeRegistryTest, OversizedAnnotationCountThrows) {
  ByteWriter w;
  w.PutU16(ValueTuple::kTypeTag);
  w.PutU8(0);  // kind
  w.PutI64(0);  // ts
  w.PutU64(0);  // id
  w.PutI64(0);  // stimulus
  w.PutU8(1);   // annotated
  w.PutU32(0xFFFFFFFFu);
  ByteReader r(w.bytes());
  EXPECT_THROW(DeserializeTuple(r), std::out_of_range);
}

TEST(TypeRegistryTest, ReregisteringSameTypeIsIdempotent) {
  EXPECT_TRUE(RegisterTupleType(ValueTuple::kTypeTag, ValueTuple::kTypeName,
                                &ValueTuple::Deserialize));
}

TEST(TypeRegistryTest, BackToBackTuplesShareOneBuffer) {
  ByteWriter w;
  SerializeTuple(*V(1, 10), w);
  SerializeTuple(*V(2, 20), w);
  ByteReader r(w.bytes());
  EXPECT_EQ(static_cast<ValueTuple*>(DeserializeTuple(r).get())->value, 10);
  EXPECT_EQ(static_cast<ValueTuple*>(DeserializeTuple(r).get())->value, 20);
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace genealog
