#include "estimators/clustering.hpp"

#include "stream/motif_sinks.hpp"

namespace frontier {

double estimate_global_clustering(const Graph& g,
                                  std::span<const Edge> edges) {
  ClusteringSink sink(g);
  ingest_sample(sink, g, edges);
  return sink.global_clustering();
}

}  // namespace frontier
