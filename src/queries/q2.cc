// Q2 — Detecting accidents (Linear Road, Figure 9).
//
// Extends Q1: the stopped-car events (carrying each car's last position) are
// aggregated by position over a tumbling 30 s window counting distinct cars;
// two or more stopped cars at the same position is an accident. Eight source
// tuples contribute to each sink tuple (two cars × four reports).
//
// Distributed split (Figure 9C): instance 1 = Source + Filter + Aggregate +
// Filter (all of Q1), instance 2 = Aggregate + Filter + Sink.
#include <set>

#include "queries/queries.h"

namespace genealog::queries {

AggregateCombiner<lr::PositionReport, lr::StoppedCarStats, int64_t>
StoppedCarCombiner();  // defined in q1.cc

namespace {

using lr::AccidentStats;
using lr::PositionReport;
using lr::StoppedCarStats;

AggregateCombiner<StoppedCarStats, AccidentStats, int64_t> AccidentCombiner() {
  return [](const WindowView<StoppedCarStats, int64_t>& w) {
    std::set<int64_t> cars;
    for (const auto& t : w.tuples) cars.insert(t->car_id);
    return MakeTuple<AccidentStats>(/*ts=*/0, /*pos=*/w.key,
                                    static_cast<int64_t>(cars.size()));
  };
}

}  // namespace

// The whole Q1 chain, then the accident aggregate. Figure 9C's split puts
// everything up to the stopped-car filter on instance 1 and the accident
// stage on instance 2 — one At(2) cut.
BuiltDataflow BuildQ2Fluent(const lr::LinearRoadData& data,
                            QueryBuildOptions options) {
  Dataflow df(options);

  Stream<StoppedCarStats> stopped =
      df.Source<PositionReport>("source", data.reports, options.source)
          .Filter("q1.filter.speed0",
                  [](const PositionReport& t) { return t.speed == 0.0; })
          .Aggregate<StoppedCarStats>(
              "q1.agg.stopped",
              AggregateOptions{kQ1WindowSize, kQ1WindowAdvance,
                               WindowBounds::kLeftClosedRightOpen,
                               EmitAt::kWindowStart},
              [](const PositionReport& t) { return t.car_id; },
              StoppedCarCombiner())
          .Filter("q1.filter.stopped", [](const StoppedCarStats& t) {
            return t.count == kQ1StopCount && t.dist_pos == 1;
          });
  if (options.distributed) stopped = stopped.At(2);
  stopped
      .Aggregate<AccidentStats>(
          "agg.accidents",
          AggregateOptions{kQ2WindowSize, kQ2WindowAdvance,
                           WindowBounds::kLeftClosedRightOpen,
                           EmitAt::kWindowStart},
          [](const StoppedCarStats& t) { return t.last_pos; },
          AccidentCombiner())
      .Filter("filter.accident",
              [](const AccidentStats& t) { return t.count > 1; })
      .Sink("K", options.sink_consumer);
  return df.Build();
}

}  // namespace genealog::queries
