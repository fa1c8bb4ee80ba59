// The four evaluation queries of §7.
//
//  Q1 — Linear Road, broken-down car detection (Figure 1).
//  Q2 — Linear Road, accident detection (Figure 9).
//  Q3 — Smart grid, long-term blackout detection (Figure 10).
//  Q4 — Smart grid, midnight-anomaly detection (Figure 11).
//
// Each builder lowers the query per the paper's figures in the requested
// provenance mode and deployment (see queries/common.h).
#ifndef GENEALOG_QUERIES_QUERIES_H_
#define GENEALOG_QUERIES_QUERIES_H_

#include "lr/linear_road.h"
#include "queries/common.h"
#include "smartgrid/smartgrid.h"
#include "spe/dataflow.h"

namespace genealog::queries {

// Fixed query parameters from §7.
inline constexpr int64_t kQ1WindowSize = 120;  // seconds
inline constexpr int64_t kQ1WindowAdvance = 30;
inline constexpr int64_t kQ1StopCount = 4;
inline constexpr int64_t kQ2WindowSize = 30;
inline constexpr int64_t kQ2WindowAdvance = 30;
inline constexpr int64_t kDayHours = 24;
inline constexpr int64_t kQ3ZeroMeterThreshold = 7;   // alert if count > 7
inline constexpr int64_t kQ4JoinWindowHours = 1;
inline constexpr double kQ4DiffThreshold = 200.0;

// Each query on the fluent dataflow builder (spe/dataflow.h): the logical
// plan in ~20 lines, with the SU/MU/provenance-sink machinery woven
// automatically from `options.mode` and the paper's distributed split
// expressed as a single At(2) deployment cut. dataflow_equivalence_test pins
// every mode and deployment — sink stream, canonical provenance and lowered
// structure — to golden digests (tests/queries/golden/queries.golden).
BuiltDataflow BuildQ1Fluent(const lr::LinearRoadData& data,
                            QueryBuildOptions options);
BuiltDataflow BuildQ2Fluent(const lr::LinearRoadData& data,
                            QueryBuildOptions options);
BuiltDataflow BuildQ3Fluent(const sg::SmartGridData& data,
                            QueryBuildOptions options);
BuiltDataflow BuildQ4Fluent(const sg::SmartGridData& data,
                            QueryBuildOptions options);

// Translates the query build options into the fluent builder's options;
// deployment cuts and sink consumers stay per-query.
inline DataflowOptions ToDataflowOptions(const QueryBuildOptions& options) {
  DataflowOptions opts;
  opts.mode = options.mode;
  opts.engine = options.engine();
  opts.provenance_file = options.provenance_file;
  opts.provenance_consumer = options.provenance_consumer;
  opts.baseline_oracle_eviction = options.baseline_oracle_eviction;
  return opts;
}

}  // namespace genealog::queries

#endif  // GENEALOG_QUERIES_QUERIES_H_
