// Q4 — Anomaly (faulty meter) detection (smart grid, Figure 11).
//
//   Source -> Multiplex -> { Aggregate(sum(cons); WS = WA = 1 day,
//                                      group-by meter_id, emit at window end),
//                            Filter(ts % 24 == 0) }
//          -> Join(L.meter_id == R.meter_id, WS = 1 hour,
//                  cons_diff = |L.cons_sum - R.cons|)
//          -> Filter(cons_diff > 200) -> Sink
//
// A faulty meter under-reports a day and compensates with a spike at the
// following midnight; the daily sum of day d (emitted at ts = 24(d+1)) joins
// the midnight reading at ts = 24(d+1), and a large absolute difference
// raises the alert. 25 source tuples contribute to each sink tuple: the 24
// readings of the summed day plus the midnight reading (the paper counts 24;
// the off-by-one is a window-boundary-inclusion choice, see EXPERIMENTS.md).
//
// Distributed split (Figure 11C): instance 1 = Source + Multiplex +
// Aggregate + Filter (two delivering streams, so two SUs feed the MU's two
// upstream ports); instance 2 = Join + Filter + Sink.
#include <cmath>

#include "queries/queries.h"

namespace genealog::queries {
namespace {

using sg::ConsumptionDiff;
using sg::DailyConsumption;
using sg::MeterReading;

}  // namespace

AggregateCombiner<MeterReading, DailyConsumption, int64_t>
DailySumCombiner();  // defined in q3.cc

// Q4 is the only query with fan-out and a Join. Figure 11C's split keeps
// Multiplex/Aggregate/Filter on instance 1 and runs the Join on instance 2 —
// rebinding the Join's left input with At(2) places the operator there, and
// both delivering streams get their SU + MU upstream port automatically.
BuiltDataflow BuildQ4Fluent(DatasetRef<sg::SmartGridData> data,
                            QueryBuildOptions options) {
  Dataflow df(options);

  std::vector<Stream<MeterReading>> taps =
      df.Source<MeterReading>(
              "source", data.Share(&sg::SmartGridData::readings),
              options.source)
          .Multiplex("multiplex", 2);
  Stream<DailyConsumption> daily = taps[0].Aggregate<DailyConsumption>(
      "agg.daily_sum",
      AggregateOptions{kDayHours, kDayHours, WindowBounds::kLeftClosedRightOpen,
                       EmitAt::kWindowEnd},
      [](const MeterReading& t) { return t.meter_id; }, DailySumCombiner());
  Stream<MeterReading> midnight = taps[1].Filter(
      "filter.midnight",
      [](const MeterReading& t) { return t.ts % kDayHours == 0; });
  if (options.distributed) daily = daily.At(2);
  daily
      .Join<ConsumptionDiff>(
          "join.meter", midnight, JoinOptions{kQ4JoinWindowHours},
          [](const DailyConsumption& l, const MeterReading& r) {
            return l.meter_id == r.meter_id;
          },
          [](const DailyConsumption& l, const MeterReading& r) {
            return MakeTuple<ConsumptionDiff>(
                /*ts=*/0, l.meter_id, std::abs(l.cons_sum - r.cons));
          })
      .Filter("filter.anomaly",
              [](const ConsumptionDiff& t) {
                return t.cons_diff > kQ4DiffThreshold;
              })
      .Sink("K", options.sink_consumer);
  return df.Build();
}

}  // namespace genealog::queries
