#include "estimators/graph_moments.hpp"

#include <stdexcept>

namespace frontier {

double estimate_average_degree(const Graph& g, std::span<const Edge> edges) {
  if (edges.empty()) return 0.0;
  double s = 0.0;
  for (const Edge& e : edges) {
    s += 1.0 / static_cast<double>(g.degree(e.v));
  }
  return s == 0.0 ? 0.0 : static_cast<double>(edges.size()) / s;
}

double estimate_average_degree_uniform(const Graph& g,
                                       std::span<const VertexId> vertices) {
  if (vertices.empty()) return 0.0;
  double sum = 0.0;
  for (VertexId v : vertices) sum += static_cast<double>(g.degree(v));
  return sum / static_cast<double>(vertices.size());
}

double estimate_degree_moment(const Graph& g, std::span<const Edge> edges,
                              unsigned k) {
  if (k == 0) return edges.empty() ? 0.0 : 1.0;  // E[deg^0] = 1
  if (edges.empty()) return 0.0;
  // Stationary samples are degree-biased: E_sample[deg^(k-1)] =
  // Σ_v deg^k / vol, and S = E_sample[deg^-1] -> |V|/vol, so the ratio is
  // the k-th raw moment (1/|V|) Σ_v deg^k.
  double numerator = 0.0;
  double s = 0.0;
  for (const Edge& e : edges) {
    const double deg = static_cast<double>(g.degree(e.v));
    numerator += degree_power(deg, k - 1);
    s += 1.0 / deg;
  }
  return s == 0.0 ? 0.0 : numerator / s;
}

double estimate_volume(const Graph& g, std::span<const Edge> edges,
                       double num_vertices) {
  if (num_vertices <= 0.0) {
    throw std::invalid_argument("estimate_volume: num_vertices > 0");
  }
  return estimate_average_degree(g, edges) * num_vertices;
}

}  // namespace frontier
