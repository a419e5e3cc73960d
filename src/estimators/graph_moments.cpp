#include "estimators/graph_moments.hpp"

#include <algorithm>

#include "stream/sinks.hpp"

namespace frontier {

double estimate_average_degree(const Graph& g, std::span<const Edge> edges) {
  GraphMomentsSink sink(g, 1);
  ingest_sample(sink, g, edges);
  return sink.average_degree();
}

double estimate_average_degree_uniform(const Graph& g,
                                       std::span<const VertexId> vertices) {
  UniformDegreeSink sink(g);
  ingest_sample(sink, g, vertices);
  return sink.value();
}

double estimate_degree_moment(const Graph& g, std::span<const Edge> edges,
                              unsigned k) {
  GraphMomentsSink sink(g, std::max(k, 1u));
  ingest_sample(sink, g, edges);
  return sink.degree_moment(k);
}

double estimate_volume(const Graph& g, std::span<const Edge> edges,
                       double num_vertices) {
  GraphMomentsSink sink(g, 1);
  ingest_sample(sink, g, edges);
  return sink.volume(num_vertices);
}

}  // namespace frontier
