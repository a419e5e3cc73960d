#include "estimators/degree_distribution.hpp"

#include "stream/sinks.hpp"

namespace frontier {

std::vector<double> estimate_degree_distribution(const Graph& g,
                                                 std::span<const Edge> edges,
                                                 DegreeKind kind) {
  DegreeDistributionSink sink(g, kind);
  ingest_sample(sink, g, edges);
  return sink.distribution();
}

std::vector<double> estimate_degree_distribution_uniform(
    const Graph& g, std::span<const VertexId> vertices, DegreeKind kind) {
  std::vector<double> counts;
  for (VertexId v : vertices) {
    const std::uint32_t d = degree_of(g, v, kind);
    if (d >= counts.size()) counts.resize(d + 1, 0.0);
    counts[d] += 1.0;
  }
  if (!vertices.empty()) {
    for (double& c : counts) c /= static_cast<double>(vertices.size());
  }
  return counts;
}

std::vector<double> estimate_degree_ccdf(const Graph& g,
                                         std::span<const Edge> edges,
                                         DegreeKind kind) {
  return ccdf_from_pdf(estimate_degree_distribution(g, edges, kind));
}

}  // namespace frontier
