#include "estimators/density.hpp"

#include "stream/sinks.hpp"

namespace frontier {

double estimate_edge_label_density(
    const Graph& g, std::span<const Edge> edges,
    const std::function<bool(const Edge&)>& labeled,
    const std::function<bool(const Edge&)>& has_label) {
  EdgeDensitySink sink(labeled, has_label);
  ingest_sample(sink, g, edges);
  return sink.value();
}

double estimate_vertex_label_density(
    const Graph& g, std::span<const Edge> edges,
    const std::function<bool(VertexId)>& pred) {
  VertexDensitySink sink(g, pred);
  ingest_sample(sink, g, edges);
  return sink.value();
}

std::vector<double> estimate_group_densities(
    const Graph& g, std::span<const Edge> edges,
    const std::function<std::span<const std::uint32_t>(VertexId)>& groups_of,
    std::size_t num_groups) {
  std::vector<double> weighted(num_groups, 0.0);
  double s = 0.0;
  for (const Edge& e : edges) {
    const double inv_deg = 1.0 / static_cast<double>(g.degree(e.v));
    s += inv_deg;
    for (std::uint32_t grp : groups_of(e.v)) {
      if (grp < num_groups) weighted[grp] += inv_deg;  // others untracked
    }
  }
  if (s > 0.0) {
    for (double& w : weighted) w /= s;
  }
  return weighted;
}

std::vector<double> estimate_group_densities_uniform(
    std::span<const VertexId> vertices,
    const std::function<std::span<const std::uint32_t>(VertexId)>& groups_of,
    std::size_t num_groups) {
  std::vector<double> counts(num_groups, 0.0);
  for (VertexId v : vertices) {
    for (std::uint32_t grp : groups_of(v)) {
      if (grp < num_groups) counts[grp] += 1.0;
    }
  }
  if (!vertices.empty()) {
    for (double& c : counts) c /= static_cast<double>(vertices.size());
  }
  return counts;
}

}  // namespace frontier
