// Helpers shared by the Q1–Q4 integration tests: canonical forms of sink
// outputs and provenance records that are stable across runs and deployments
// (tuple ids differ between topology instantiations, payloads do not).
#ifndef GENEALOG_TESTS_QUERIES_QUERY_HELPERS_H_
#define GENEALOG_TESTS_QUERIES_QUERY_HELPERS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/type_registry.h"
#include "genealog/provenance_record.h"
#include "queries/queries.h"

namespace genealog::queries {

// Canonical provenance-file bytes: each record re-serialized with id,
// stimulus and baseline-annotation ids zeroed (the annotation keeps its
// length), origins and records sorted canonically, then re-concatenated.
// Two runs of the same logical query yield identical bytes (raw files never
// can: tuple ids derive from node uids drawn off a global counter, stimuli
// are wall-clock reads, and record order follows watermark arrival
// granularity). Every remaining byte — type tags, kinds, timestamps,
// payloads, origin sets — must match exactly. CanonicalProvenanceRecords
// returns the sorted records one by one; a file that does not parse as
// whole records throws (ByteReader's std::out_of_range).
inline std::vector<std::vector<uint8_t>> CanonicalProvenanceRecords(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  auto mask_and_serialize = [](const TuplePtr& t, ByteWriter& w) {
    t->id = 0;
    t->stimulus = 0;
    if (const auto* ann = t->baseline_annotation()) {
      t->set_baseline_annotation(std::vector<uint64_t>(ann->size(), 0));
    }
    SerializeTuple(*t, w);
  };

  std::vector<std::vector<uint8_t>> records;
  ByteReader reader(bytes);
  while (!reader.AtEnd()) {
    TuplePtr derived = DeserializeTuple(reader);
    const uint32_t n = reader.GetU32();
    std::vector<std::vector<uint8_t>> origins;
    ByteWriter w;
    for (uint32_t i = 0; i < n; ++i) {
      w.Clear();
      mask_and_serialize(DeserializeTuple(reader), w);
      origins.emplace_back(w.bytes().begin(), w.bytes().end());
    }
    std::sort(origins.begin(), origins.end());
    w.Clear();
    mask_and_serialize(derived, w);
    w.PutU32(n);
    std::vector<uint8_t> record(w.bytes().begin(), w.bytes().end());
    for (const auto& o : origins) {
      record.insert(record.end(), o.begin(), o.end());
    }
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end());
  return records;
}

inline std::vector<uint8_t> CanonicalProvenanceBytes(const std::string& path) {
  std::vector<uint8_t> canonical;
  for (const auto& r : CanonicalProvenanceRecords(path)) {
    canonical.insert(canonical.end(), r.begin(), r.end());
  }
  return canonical;
}

struct CanonicalSinkTuple {
  int64_t ts;
  std::string payload;
  bool operator==(const CanonicalSinkTuple&) const = default;
  auto operator<=>(const CanonicalSinkTuple&) const = default;
};

struct CanonicalRecord {
  int64_t derived_ts;
  std::string derived_payload;
  std::vector<std::pair<int64_t, std::string>> origins;  // (ts, payload)
  bool operator==(const CanonicalRecord&) const = default;
  auto operator<=>(const CanonicalRecord&) const = default;
};

struct QueryRunResult {
  std::vector<CanonicalSinkTuple> sink_tuples;
  std::vector<CanonicalRecord> records;  // sorted canonically

  // Records sorted for order-insensitive comparison.
  void Canonicalize() {
    std::sort(records.begin(), records.end());
    std::sort(sink_tuples.begin(), sink_tuples.end());
  }
};

// Builds and runs one query configuration, capturing sink tuples and
// provenance records through the observer hooks.
template <typename Builder, typename Data>
QueryRunResult RunQuery(Builder&& builder, const Data& data,
                        QueryBuildOptions options) {
  auto result = std::make_shared<QueryRunResult>();
  options.sink_consumer = [result](const TuplePtr& t) {
    result->sink_tuples.push_back({t->ts, t->DebugPayload()});
  };
  options.provenance_consumer = [result](const ProvenanceRecord& r) {
    CanonicalRecord record;
    record.derived_ts = r.derived_ts;
    record.derived_payload = r.derived->DebugPayload();
    for (const TuplePtr& o : r.origins) {
      record.origins.emplace_back(o->ts, o->DebugPayload());
    }
    std::sort(record.origins.begin(), record.origins.end());
    result->records.push_back(std::move(record));
  };
  BuiltDataflow q = builder(data, std::move(options));
  q.Run();
  result->Canonicalize();
  return *result;
}

}  // namespace genealog::queries

#endif  // GENEALOG_TESTS_QUERIES_QUERY_HELPERS_H_
