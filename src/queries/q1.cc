// Q1 — Detecting broken-down cars (Linear Road, Figure 1).
//
//   Source -> Filter(speed == 0)
//          -> Aggregate(count(), distinct(pos), last(pos);
//                       WS = 120 s, WA = 30 s, group-by car_id)
//          -> Filter(count == 4 AND dist_pos == 1) -> Sink
//
// A car is stopped when at least four consecutive position reports (one
// every 30 s) have zero speed and the same position: a [s, s+120) window
// holds exactly four reports of a car, so count == 4 with one distinct
// position is precisely that condition. Four source tuples contribute to
// each sink tuple. The distributed split (Figure 7) places Source+Filter on
// instance 1 and Aggregate+Filter+Sink on instance 2.
#include <set>

#include "queries/queries.h"

namespace genealog::queries {

using lr::PositionReport;
using lr::StoppedCarStats;

// Shared with q2.cc (the Q2 plan starts with the whole Q1 chain).
AggregateCombiner<PositionReport, StoppedCarStats, int64_t>
StoppedCarCombiner() {
  return [](const WindowView<PositionReport, int64_t>& w) {
    std::set<int64_t> positions;
    for (const auto& t : w.tuples) positions.insert(t->pos);
    return MakeTuple<StoppedCarStats>(
        /*ts=*/0, /*car_id=*/w.key, static_cast<int64_t>(w.tuples.size()),
        static_cast<int64_t>(positions.size()), w.tuples.back()->pos);
  };
}

// The logical plan is the Figure 1 chain plus a deployment cut (Figure 7)
// when distributed; SU/MU placement, provenance sink, channels and ports are
// woven by Dataflow::Build from options.mode. With
// options.parallelism > 1 the aggregate runs as a key-partitioned parallel
// stage (the Aggregate shorthand for .KeyBy(car_id).Parallel(n)); output and
// provenance are identical to the single-instance build either way.
BuiltDataflow BuildQ1Fluent(DatasetRef<lr::LinearRoadData> data,
                            QueryBuildOptions options) {
  Dataflow df(options);

  Stream<PositionReport> reports =
      df.Source<PositionReport>(
              "source", data.Share(&lr::LinearRoadData::reports),
              options.source)
          .Filter("filter.speed0",
                  [](const PositionReport& t) { return t.speed == 0.0; });
  // Figure 7: Source + Filter on instance 1, the rest on instance 2.
  if (options.distributed) reports = reports.At(2);
  const AggregateOptions agg_options{kQ1WindowSize, kQ1WindowAdvance,
                                     WindowBounds::kLeftClosedRightOpen,
                                     EmitAt::kWindowStart};
  const auto key_fn = [](const PositionReport& t) { return t.car_id; };
  Stream<StoppedCarStats> stats =
      options.parallelism > 1
          ? reports.Aggregate<StoppedCarStats>("agg.stopped", agg_options,
                                               key_fn, StoppedCarCombiner(),
                                               options.parallelism)
          : reports.Aggregate<StoppedCarStats>("agg.stopped", agg_options,
                                               key_fn, StoppedCarCombiner());
  stats
      .Filter("filter.stopped",
              [](const StoppedCarStats& t) {
                return t.count == kQ1StopCount && t.dist_pos == 1;
              })
      .Sink("K", options.sink_consumer);
  return df.Build();
}

}  // namespace genealog::queries
