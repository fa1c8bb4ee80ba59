// Inter-process provenance (§6): the broken-down-car query (Q1) deployed on
// three SPE instances as in Figure 7 —
//
//   instance 1: Source -> Filter -> SU -> Send          (edge node A)
//   instance 2: Receive -> Aggregate -> Filter -> SU -> Sink   (edge node B)
//   instance 3: MU -> provenance sink K2                (provenance node)
//
// connected by real TCP loopback channels. Tuples are serialized across every
// boundary; the MU stitches the contribution graphs back together from the
// unfolded delivering streams, by joining on tuple ids.
//
//   $ ./build/examples/distributed_provenance
#include <cstdio>
#include <string>

#include "queries/queries.h"

using namespace genealog;

int main() {
  lr::LinearRoadConfig config;
  config.n_cars = 60;
  config.duration_s = 3600;
  config.stop_probability = 0.008;
  config.accident_probability = 0.02;
  config.seed = 99;
  lr::LinearRoadData data = lr::GenerateLinearRoad(config);
  std::printf("generated %zu position reports\n\n", data.reports.size());

  queries::QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.distributed = true;
  options.use_tcp = true;  // three instances talk over real sockets
  options.sink_consumer = [](const TuplePtr& alert) {
    const auto& stats = static_cast<const lr::StoppedCarStats&>(*alert);
    std::printf("[instance 2] STOPPED CAR car=%lld window=%lld pos=%lld\n",
                static_cast<long long>(stats.car_id),
                static_cast<long long>(alert->ts),
                static_cast<long long>(stats.last_pos));
  };
  // Instances 2 and 3 print from different threads: each line is built
  // whole and printed in one call, so lines never interleave.
  options.provenance_consumer = [](const ProvenanceRecord& record) {
    std::string line = "[instance 3] provenance of alert@" +
                       std::to_string(record.derived_ts) + ": " +
                       std::to_string(record.origins.size()) + " reports:";
    for (const TuplePtr& origin : record.origins) {
      line += " ts=" + std::to_string(origin->ts);
    }
    std::puts(line.c_str());
  };

  BuiltDataflow query = queries::BuildQ1Fluent(data, std::move(options));
  std::printf("deployed %d SPE instances, %zu TCP channels\n\n",
              query.n_instances, query.channels.size() / 2);
  query.Run();

  std::printf("\nnetwork: %llu bytes crossed instance boundaries\n",
              static_cast<unsigned long long>(query.network_bytes()));
  std::printf("provenance records at instance 3: %llu (avg %.1f sources)\n",
              static_cast<unsigned long long>(query.provenance_records()),
              query.mean_origins_per_record());
  for (SuNode* su : query.su_nodes) {
    std::printf("SU '%s' (instance %d): %.4f ms avg traversal, %.1f avg graph\n",
                su->name().c_str(), su->instance_id(), su->mean_traversal_ms(),
                su->mean_graph_size());
  }
  return 0;
}
