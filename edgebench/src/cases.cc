#include "cases.h"

#include <algorithm>
#include <cmath>

namespace edgebench {

using genealog::Tuple;
namespace lr = genealog::lr;
namespace sg = genealog::sg;
namespace queries = genealog::queries;

bool RowLess(const Row& a, const Row& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.key != b.key) return a.key < b.key;
  if (a.i != b.i) return a.i < b.i;
  return a.x < b.x;
}

bool SameRow(const Row& a, const Row& b) {
  return a.ts == b.ts && a.key == b.key && a.i == b.i &&
         std::abs(a.x - b.x) <= 1e-9 * std::max(1.0, std::abs(b.x));
}

namespace {

// Lap index of an event-time stamp (floor division: laps start at 0).
int64_t LapOf(int64_t ts, int64_t shift) {
  return ts >= 0 ? ts / shift : -((-ts + shift - 1) / shift);
}

// A tuple of the wrong type: a row no oracle entry matches.
Row UnexpectedRow(const Tuple& t) { return {t.ts, -1, -1, 0}; }

}  // namespace

void QueryCase::SetExpected(
    std::vector<std::pair<Row, std::vector<Row>>> events) {
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return RowLess(a.first, b.first);
  });
  for (auto& [sink, origins] : events) {
    std::sort(origins.begin(), origins.end(), RowLess);
    index_.emplace(std::make_pair(sink.ts, sink.key), expected_sinks_.size());
    expected_sinks_.push_back(sink);
    expected_origins_.push_back(std::move(origins));
  }
}

void QueryCase::Check(const Capture& capture, int laps, bool check_records,
                      uint64_t& attempted, uint64_t& failed) const {
  const size_t n = expected_sinks_.size();
  const int64_t shift = lap_shift();
  attempted += (check_records ? 2 : 1) * n * static_cast<uint64_t>(laps);

  // Sink stream: multiset comparison against the lap-shifted oracle.
  std::vector<Row> got = capture.sinks;
  std::sort(got.begin(), got.end(), RowLess);
  std::vector<Row> want;
  want.reserve(n * static_cast<size_t>(laps));
  for (int lap = 0; lap < laps; ++lap) {
    for (Row row : expected_sinks_) {
      row.ts += lap * shift;
      want.push_back(row);
    }
  }
  std::sort(want.begin(), want.end(), RowLess);
  size_t i = 0;
  size_t j = 0;
  while (i < got.size() && j < want.size()) {
    if (SameRow(got[i], want[j])) {
      ++i;
      ++j;
    } else if (RowLess(got[i], want[j])) {
      ++failed;
      ++i;
    } else {
      ++failed;
      ++j;
    }
  }
  failed += (got.size() - i) + (want.size() - j);
  if (!check_records) return;

  // Provenance: one record per expected event and lap, whose origins are
  // exactly the source tuples of that event.
  std::vector<uint32_t> seen(n * static_cast<size_t>(laps), 0);
  std::vector<Row> origins;
  for (const RecordRow& rec : capture.records) {
    const int64_t lap = LapOf(rec.derived.ts, shift);
    Row derived = rec.derived;
    derived.ts -= lap * shift;
    const auto it = index_.find({derived.ts, derived.key});
    if (lap < 0 || lap >= laps || it == index_.end() ||
        !SameRow(derived, expected_sinks_[it->second])) {
      ++failed;
      continue;
    }
    const size_t event = it->second;
    if (seen[static_cast<size_t>(lap) * n + event]++ > 0) {
      ++failed;  // duplicate record
      continue;
    }
    origins.assign(capture.origins.begin() + rec.origins_begin,
                   capture.origins.begin() + rec.origins_end);
    for (Row& o : origins) o.ts -= lap * shift;
    std::sort(origins.begin(), origins.end(), RowLess);
    const std::vector<Row>& expect = expected_origins_[event];
    bool same = origins.size() == expect.size();
    for (size_t k = 0; same && k < origins.size(); ++k) {
      same = SameRow(origins[k], expect[k]);
    }
    if (!same) ++failed;
  }
  failed += static_cast<uint64_t>(std::count(seen.begin(), seen.end(), 0u));
}

// --- Linear Road / Q1 --------------------------------------------------------

LinearRoadCase::LinearRoadCase(uint64_t seed, double scale) {
  lr::LinearRoadConfig config;
  // 1000 cars reporting every 30 s: one report tick is 1000 tuples, so at
  // the paced rates event time advances fast enough that sink latency shows
  // the engine's delays rather than the wait for the window to close.
  config.n_cars = std::max(20, static_cast<int>(std::lround(1000 * scale)));
  config.duration_s = 9000;
  // The breakdown density of the repository's figure benchmarks
  // (bench/harness.cc): about 1700 alerts per lap.
  config.stop_probability = 0.002;
  config.seed = seed;
  data_ = lr::GenerateLinearRoad(config);
  // Whole window advances, and more than one window of silence between laps.
  lap_shift_ = ((config.duration_s + queries::kQ1WindowSize) /
                    queries::kQ1WindowAdvance +
                1) *
               queries::kQ1WindowAdvance;

  std::map<int64_t, std::vector<const lr::PositionReport*>> zero_by_car;
  for (const auto& r : data_.reports) {
    if (r->speed == 0.0) zero_by_car[r->car_id].push_back(r.get());
  }
  std::vector<std::pair<Row, std::vector<Row>>> events;
  for (const auto& e : lr::ReferenceStoppedCars(
           data_.reports, queries::kQ1WindowSize, queries::kQ1WindowAdvance,
           queries::kQ1StopCount)) {
    std::vector<Row> origins;
    for (const lr::PositionReport* r : zero_by_car[e.car_id]) {
      if (r->ts >= e.window_start &&
          r->ts < e.window_start + queries::kQ1WindowSize) {
        origins.push_back(OriginRow(*r));
      }
    }
    events.emplace_back(Row{e.window_start, e.car_id, e.pos, 0},
                        std::move(origins));
  }
  SetExpected(std::move(events));
}

genealog::BuiltDataflow LinearRoadCase::Build(
    queries::QueryBuildOptions options) const {
  return queries::BuildQ1Fluent(data_, std::move(options));
}

Row LinearRoadCase::SinkRow(const Tuple& t) const {
  if (t.type_tag() != genealog::tags::kStoppedCarStats) return UnexpectedRow(t);
  const auto& s = static_cast<const lr::StoppedCarStats&>(t);
  return {s.ts, s.car_id, s.last_pos, 0};
}

Row LinearRoadCase::OriginRow(const Tuple& t) const {
  if (t.type_tag() != genealog::tags::kPositionReport) return UnexpectedRow(t);
  const auto& r = static_cast<const lr::PositionReport&>(t);
  return {r.ts, r.car_id, r.pos, r.speed};
}

// --- Smart grid / Q4 ---------------------------------------------------------

SmartGridCase::SmartGridCase(uint64_t seed, double scale) {
  sg::SmartGridConfig config;
  config.n_meters = std::max(10, static_cast<int>(std::lround(120 * scale)));
  // Short laps: a paced repetition lasts under half a second, so the
  // least-stolen repetitions can be picked from inside a steal episode.
  config.n_days = 20;
  // Dense anomalies, 75x the figure benchmarks' 0.002: about 550 alerts per
  // lap. At 0.002 a lap holds about ten alerts, so the seed alone would move
  // prov_bytes_per_ktuple by more than its bound, and a paced phase would
  // need minutes, not seconds, to reach 1000 alerts.
  config.anomaly_probability = 0.15;
  config.seed = seed;
  data_ = sg::GenerateSmartGrid(config);
  // Two empty days between laps: no daily sum meets the next lap's first
  // midnight inside the one-hour join window.
  lap_shift_ = (config.n_days + 2) * queries::kDayHours;

  std::map<int64_t, std::vector<const sg::MeterReading*>> by_meter;
  for (const auto& r : data_.readings) by_meter[r->meter_id].push_back(r.get());
  std::vector<std::pair<Row, std::vector<Row>>> events;
  for (const auto& e :
       sg::ReferenceAnomalies(data_.readings, queries::kQ4DiffThreshold)) {
    const int64_t day_start = e.day * queries::kDayHours;
    const int64_t midnight = day_start + queries::kDayHours;
    std::vector<Row> origins;
    for (const sg::MeterReading* r : by_meter[e.meter_id]) {
      if ((r->ts >= day_start && r->ts < midnight) || r->ts == midnight) {
        origins.push_back(OriginRow(*r));
      }
    }
    events.emplace_back(Row{midnight, e.meter_id, 0, e.diff},
                        std::move(origins));
  }
  SetExpected(std::move(events));
}

genealog::BuiltDataflow SmartGridCase::Build(
    queries::QueryBuildOptions options) const {
  return queries::BuildQ4Fluent(data_, std::move(options));
}

Row SmartGridCase::SinkRow(const Tuple& t) const {
  if (t.type_tag() != genealog::tags::kConsumptionDiff) return UnexpectedRow(t);
  const auto& d = static_cast<const sg::ConsumptionDiff&>(t);
  return {d.ts, d.meter_id, 0, d.cons_diff};
}

Row SmartGridCase::OriginRow(const Tuple& t) const {
  if (t.type_tag() != genealog::tags::kMeterReading) return UnexpectedRow(t);
  const auto& r = static_cast<const sg::MeterReading&>(t);
  return {r.ts, r.meter_id, 0, r.cons};
}

}  // namespace edgebench
