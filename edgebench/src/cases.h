// The two query cases the workloads run, each with its seeded input data and
// its correctness oracle.
//
//  * LinearRoadCase — Q1 (broken-down cars) over lr::GenerateLinearRoad, the
//    oracle lr::ReferenceStoppedCars;
//  * SmartGridCase — Q4 (faulty meters) over sg::GenerateSmartGrid, the
//    oracle sg::ReferenceAnomalies.
//
// A run replays the generated data `laps` times through
// SourceOptions::replays, shifting event time by lap_shift() per lap. The
// shift leaves a gap of more than one window between laps, so no window or
// join spans two laps and the expected output of lap k is lap 0's shifted by
// k * lap_shift(). Checking therefore needs the oracle of lap 0 only.
//
// The oracle is checked against canonical rows the sink and provenance
// consumers extract on the engine threads (a Row per tuple, no retained
// tuple objects), after the run has drained.
#ifndef EDGEBENCH_CASES_H_
#define EDGEBENCH_CASES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "queries/queries.h"

namespace edgebench {

// The fields of a sink or source tuple the oracle compares: event time, key
// (car or meter), one integer and one floating-point attribute.
struct Row {
  int64_t ts = 0;
  int64_t key = 0;
  int64_t i = 0;
  double x = 0;
};

// Rows compare exactly on the integers and within 1e-9 relative on x (Q4
// daily sums may be added in a different order than the oracle adds them).
bool SameRow(const Row& a, const Row& b);
bool RowLess(const Row& a, const Row& b);

// One provenance record as captured: the derived row and the range of its
// origin rows in the capture's flat origin vector.
struct RecordRow {
  Row derived;
  uint32_t origins_begin = 0;
  uint32_t origins_end = 0;
};

// What the consumers of one query captured during one repetition.
struct Capture {
  std::vector<Row> sinks;
  std::vector<RecordRow> records;
  std::vector<Row> origins;
};

class QueryCase {
 public:
  virtual ~QueryCase() = default;

  // Builds the query; `options` carries the mode, the engine knobs, the
  // consumers and the source options (replays, pacing).
  virtual genealog::BuiltDataflow Build(
      genealog::queries::QueryBuildOptions options) const = 0;

  virtual Row SinkRow(const genealog::Tuple& t) const = 0;
  virtual Row OriginRow(const genealog::Tuple& t) const = 0;

  // Source tuples in one lap, and the event-time shift between laps.
  virtual uint64_t tuples_per_lap() const = 0;
  virtual int64_t lap_shift() const = 0;

  // Expected sink rows of lap 0, sorted by RowLess, and each one's origin
  // rows, sorted by RowLess.
  const std::vector<Row>& expected_sinks() const { return expected_sinks_; }
  const std::vector<std::vector<Row>>& expected_origins() const {
    return expected_origins_;
  }

  // Compares one query's capture of a `laps`-lap run against the oracle.
  // Counts checked items (every expected sink tuple and, with
  // `check_records`, every expected record) into `attempted` and mismatches
  // (missing, unexpected or wrong sink tuples and records, and records whose
  // origins differ) into `failed`.
  void Check(const Capture& capture, int laps, bool check_records,
             uint64_t& attempted, uint64_t& failed) const;

 protected:
  // Fills expected_sinks_/expected_origins_ and the lookup index; called by
  // the constructors of derived classes.
  void SetExpected(std::vector<std::pair<Row, std::vector<Row>>> events);

 private:
  std::vector<Row> expected_sinks_;
  std::vector<std::vector<Row>> expected_origins_;
  std::map<std::pair<int64_t, int64_t>, size_t> index_;  // (ts, key) -> event
};

// Q1 over Linear Road. `scale` multiplies the car count (1.0 = 1000 cars
// over 9000 s, 300 000 reports per lap).
class LinearRoadCase final : public QueryCase {
 public:
  LinearRoadCase(uint64_t seed, double scale);

  genealog::BuiltDataflow Build(
      genealog::queries::QueryBuildOptions options) const override;
  Row SinkRow(const genealog::Tuple& t) const override;
  Row OriginRow(const genealog::Tuple& t) const override;
  uint64_t tuples_per_lap() const override { return data_.reports.size(); }
  int64_t lap_shift() const override { return lap_shift_; }

 private:
  genealog::lr::LinearRoadData data_;
  int64_t lap_shift_ = 0;
};

// Q4 over the smart grid. `scale` multiplies the meter count (1.0 = 120
// meters over 20 days, 57 600 readings per lap).
class SmartGridCase final : public QueryCase {
 public:
  SmartGridCase(uint64_t seed, double scale);

  genealog::BuiltDataflow Build(
      genealog::queries::QueryBuildOptions options) const override;
  Row SinkRow(const genealog::Tuple& t) const override;
  Row OriginRow(const genealog::Tuple& t) const override;
  uint64_t tuples_per_lap() const override { return data_.readings.size(); }
  int64_t lap_shift() const override { return lap_shift_; }

 private:
  genealog::sg::SmartGridData data_;
  int64_t lap_shift_ = 0;
};

}  // namespace edgebench

#endif  // EDGEBENCH_CASES_H_
