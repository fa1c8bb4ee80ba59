#include "core/type_registry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

namespace genealog {
namespace {

struct Entry {
  const char* name;
  PayloadDeserializer fn;
  TupleCloner cloner;
};

std::map<uint16_t, Entry>& registry() {
  static std::map<uint16_t, Entry> r;
  return r;
}

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

bool RegisterTupleType(uint16_t tag, const char* name, PayloadDeserializer fn,
                       TupleCloner cloner) {
  std::lock_guard lock(registry_mutex());
  auto [it, inserted] = registry().emplace(tag, Entry{name, fn, cloner});
  if (!inserted && std::strcmp(it->second.name, name) != 0) {
    std::fprintf(stderr, "tuple type tag %u registered twice: %s vs %s\n", tag,
                 it->second.name, name);
    std::abort();
  }
  return true;
}

TupleCloner ClonerForTag(uint16_t tag) {
  std::lock_guard lock(registry_mutex());
  auto it = registry().find(tag);
  return it == registry().end() ? nullptr : it->second.cloner;
}

PayloadDeserializer DeserializerForTag(uint16_t tag) {
  std::lock_guard lock(registry_mutex());
  auto it = registry().find(tag);
  return it == registry().end() ? nullptr : it->second.fn;
}

namespace {

void SerializeHeaderAndPayload(const Tuple& t, TupleKind kind, ByteWriter& w) {
  w.PutU16(t.type_tag());
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutI64(t.ts);
  w.PutU64(t.id);
  w.PutI64(t.stimulus);
  // Baseline annotations travel with the tuple — the variable-length
  // per-tuple wire cost that §7 observes drowning the distributed baseline.
  if (const auto* ann = t.baseline_annotation()) {
    w.PutU8(1);
    w.PutU32(static_cast<uint32_t>(ann->size()));
    for (uint64_t id : *ann) w.PutU64(id);
  } else {
    w.PutU8(0);
  }
  t.SerializePayload(w);
}

}  // namespace

void SerializeTuple(const Tuple& t, ByteWriter& w) {
  SerializeHeaderAndPayload(t, t.kind, w);
}

void SerializeTupleForSend(const Tuple& t, ByteWriter& w) {
  const TupleKind wire_kind =
      t.kind == TupleKind::kSource ? TupleKind::kSource : TupleKind::kRemote;
  SerializeHeaderAndPayload(t, wire_kind, w);
}

TuplePtr DeserializeTuple(ByteReader& r) {
  const uint16_t tag = r.GetU16();
  const TupleKind kind = TupleKindFromWire(r.GetU8());
  const int64_t ts = r.GetI64();
  const uint64_t id = r.GetU64();
  const int64_t stimulus = r.GetI64();
  std::vector<uint64_t> annotation;
  bool has_annotation = false;
  if (r.GetU8() != 0) {
    has_annotation = true;
    const uint32_t n = r.GetU32();
    if (n > r.remaining() / sizeof(uint64_t)) {
      throw std::out_of_range("baseline annotation count " +
                              std::to_string(n) + " exceeds the input");
    }
    annotation.reserve(n);
    for (uint32_t i = 0; i < n; ++i) annotation.push_back(r.GetU64());
  }
  PayloadDeserializer fn = nullptr;
  {
    std::lock_guard lock(registry_mutex());
    auto it = registry().find(tag);
    if (it == registry().end()) {
      throw std::runtime_error("unregistered tuple type tag " +
                               std::to_string(tag));
    }
    fn = it->second.fn;
  }
  TuplePtr t = fn(r, ts);
  t->kind = kind;
  t->id = id;
  t->stimulus = stimulus;
  if (has_annotation) t->set_baseline_annotation(std::move(annotation));
  return t;
}

}  // namespace genealog
