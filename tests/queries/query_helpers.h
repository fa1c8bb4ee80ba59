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

// Canonical provenance-file bytes: CanonicalProvenanceRecords
// (genealog/provenance_record.h) concatenated. A file that does not parse as
// whole records throws, naming the file and the record.
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
