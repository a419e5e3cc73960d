#include "graph/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "graph/components.hpp"
#include "graph/intersect.hpp"

namespace frontier {

std::uint32_t degree_of(const Graph& g, VertexId v, DegreeKind kind) noexcept {
  switch (kind) {
    case DegreeKind::kIn:
      return g.in_degree(v);
    case DegreeKind::kOut:
      return g.out_degree(v);
    case DegreeKind::kSymmetric:
    default:
      return g.degree(v);
  }
}

std::vector<double> degree_distribution(const Graph& g, DegreeKind kind) {
  std::vector<std::uint64_t> counts;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t d = degree_of(g, v, kind);
    if (d >= counts.size()) counts.resize(d + 1, 0);
    ++counts[d];
  }
  std::vector<double> theta(counts.size(), 0.0);
  const double n = static_cast<double>(g.num_vertices());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    theta[i] = n > 0 ? static_cast<double>(counts[i]) / n : 0.0;
  }
  return theta;
}

std::vector<double> ccdf_from_pdf(const std::vector<double>& theta) {
  std::vector<double> gamma(theta.size(), 0.0);
  double tail = 0.0;
  for (std::size_t i = theta.size(); i-- > 0;) {
    gamma[i] = tail;
    tail += theta[i];
  }
  return gamma;
}

double exact_label_density(const Graph& g,
                           const std::function<bool(VertexId)>& pred) {
  if (g.num_vertices() == 0) return 0.0;
  std::uint64_t hits = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (pred(v)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(g.num_vertices());
}

double exact_assortativity(const Graph& g) {
  // Correlation of (outdeg(u), indeg(v)) over directed edges (u,v) ∈ E_d.
  double n = 0.0;
  double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto dirs = g.directions(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const EdgeDir d = dirs[k];
      if (d != EdgeDir::kForward && d != EdgeDir::kBoth) continue;
      const double x = g.out_degree(u);
      const double y = g.in_degree(nbrs[k]);
      n += 1.0;
      sx += x;
      sy += y;
      sxx += x * x;
      syy += y * y;
      sxy += x * y;
    }
  }
  if (n == 0.0) return 0.0;
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

std::uint32_t shared_neighbors(const Graph& g, VertexId u,
                               VertexId v) noexcept {
  std::uint32_t count = 0;
  intersect_sorted(g.num_vertices(), g.neighbors(u), g.neighbors(v),
                   [&count](VertexId) { ++count; });
  return count;
}

std::vector<std::uint64_t> triangles_per_vertex(const Graph& g) {
  // ∆(v) = ½ Σ_{u ∈ N(v)} |N(v) ∩ N(u)|: each triangle through v is counted
  // once per participating edge incident to v, i.e. twice.
  std::vector<std::uint64_t> tri(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::uint64_t twice = 0;
    for (VertexId u : g.neighbors(v)) twice += shared_neighbors(g, v, u);
    tri[v] = twice / 2;
  }
  return tri;
}

double exact_global_clustering(const Graph& g) {
  const auto tri = triangles_per_vertex(g);
  std::uint64_t eligible = 0;
  double sum = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double d = g.degree(v);
    if (d < 2) continue;
    ++eligible;
    sum += static_cast<double>(tri[v]) / (d * (d - 1.0) / 2.0);
  }
  return eligible == 0 ? 0.0 : sum / static_cast<double>(eligible);
}

GraphSummary summarize(const Graph& g, std::string name) {
  GraphSummary s;
  s.name = std::move(name);
  s.num_vertices = g.num_vertices();
  s.num_directed_edges = g.num_directed_edges();
  s.average_degree = g.average_degree();
  if (g.num_vertices() > 0) {
    const ComponentInfo info = connected_components(g);
    s.lcc_size = info.size[info.largest()];
    if (s.average_degree > 0.0) {
      s.wmax = static_cast<double>(g.max_degree()) / s.average_degree;
    }
  }
  return s;
}

}  // namespace frontier
