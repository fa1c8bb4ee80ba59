// Q3 — Long-term blackout detection (smart grid, Figure 10).
//
//   Source -> Aggregate(sum(cons); WS = WA = 1 day, group-by meter_id)
//          -> Filter(cons_sum == 0)
//          -> Aggregate(count(); WS = WA = 1 day)
//          -> Filter(count > 7) -> Sink
//
// The daily sums are emitted at window end (ts = midnight closing the day),
// so all zero-day tuples of one day share a timestamp and land in a single
// counting window. With the paper's parameters, 8 blacked-out meters × 24
// hourly readings = 192 source tuples contribute to each sink tuple.
//
// Distributed split (Figure 10C): instance 1 = Source + Aggregate + Filter,
// instance 2 = Aggregate + Filter + Sink.
#include "queries/queries.h"

namespace genealog::queries {

using sg::DailyConsumption;
using sg::MeterReading;
using sg::ZeroDayCount;

// Shared with q4.cc (both queries open with the daily sum).
AggregateCombiner<MeterReading, DailyConsumption, int64_t> DailySumCombiner() {
  return [](const WindowView<MeterReading, int64_t>& w) {
    double sum = 0.0;
    for (const auto& t : w.tuples) sum += t->cons;
    return MakeTuple<DailyConsumption>(/*ts=*/0, /*meter_id=*/w.key, sum);
  };
}

// Figure 10C's split cuts between the zero-sum filter (instance 1) and the
// counting day-aggregate (instance 2).
BuiltDataflow BuildQ3Fluent(DatasetRef<sg::SmartGridData> data,
                            QueryBuildOptions options) {
  Dataflow df(options);

  Stream<DailyConsumption> zero_days =
      df.Source<MeterReading>(
              "source", data.Share(&sg::SmartGridData::readings),
              options.source)
          .Aggregate<DailyConsumption>(
              "agg.daily_sum",
              AggregateOptions{kDayHours, kDayHours,
                               WindowBounds::kLeftClosedRightOpen,
                               EmitAt::kWindowEnd},
              [](const MeterReading& t) { return t.meter_id; },
              DailySumCombiner())
          .Filter("filter.zero_sum", [](const DailyConsumption& t) {
            return t.cons_sum == 0.0;
          });
  if (options.distributed) zero_days = zero_days.At(2);
  zero_days
      .Aggregate<ZeroDayCount>(
          "agg.zero_count",
          AggregateOptions{kDayHours, kDayHours,
                           WindowBounds::kLeftClosedRightOpen,
                           EmitAt::kWindowStart},
          [](const DailyConsumption&) { return int64_t{0}; },
          [](const WindowView<DailyConsumption, int64_t>& w) {
            return MakeTuple<ZeroDayCount>(
                /*ts=*/0, static_cast<int64_t>(w.tuples.size()));
          })
      .Filter("filter.blackout",
              [](const ZeroDayCount& t) {
                return t.count > kQ3ZeroMeterThreshold;
              })
      .Sink("K", options.sink_consumer);
  return df.Build();
}

}  // namespace genealog::queries
