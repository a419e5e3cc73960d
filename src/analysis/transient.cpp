#include "analysis/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/dense_chain.hpp"
#include "sampling/budget.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/walk.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

namespace {

double max_deficit_from_vertex_rates(const Graph& g,
                                     const std::vector<double>& rate) {
  // rate[u] = p(u,v) / (1/|E|) for every edge out of u; the relative
  // difference of every edge out of u is identical, so maximize over
  // vertices with positive degree. The absolute value matters: a transient
  // walk started uniformly *over*samples low-degree vertices by up to
  // d̄/deg(u), which is how the paper's Table 4 reports values above 100%.
  double worst = 0.0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (g.degree(u) == 0) continue;
    worst = std::max(worst, std::abs(1.0 - rate[u]));
  }
  return worst;
}

}  // namespace

std::vector<double> rw_evolve_sparse(const Graph& g,
                                     std::vector<double> dist,
                                     std::uint64_t steps) {
  if (dist.size() != g.num_vertices()) {
    throw std::invalid_argument("rw_evolve_sparse: distribution size");
  }
  std::vector<double> next(dist.size());
  for (std::uint64_t t = 0; t < steps; ++t) {
    std::fill(next.begin(), next.end(), 0.0);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const double mass = dist[u];
      if (mass == 0.0) continue;
      const auto nbrs = g.neighbors(u);
      if (nbrs.empty()) {
        next[u] += mass;  // isolated vertices absorb
        continue;
      }
      const double share = mass / static_cast<double>(nbrs.size());
      for (VertexId v : nbrs) next[v] += share;
    }
    dist.swap(next);
  }
  return dist;
}

double srw_edge_deficit_exact(const Graph& g, std::uint64_t steps) {
  if (steps == 0) {
    throw std::invalid_argument("srw_edge_deficit_exact: steps >= 1");
  }
  std::vector<double> dist(
      g.num_vertices(), 1.0 / static_cast<double>(g.num_vertices()));
  dist = rw_evolve_sparse(g, std::move(dist), steps - 1);

  const double vol = static_cast<double>(g.volume());
  std::vector<double> rate(g.num_vertices(), 0.0);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (g.degree(u) == 0) continue;
    // p(u,v) = dist[u]/deg(u); relative to 1/vol.
    rate[u] = dist[u] / static_cast<double>(g.degree(u)) * vol;
  }
  return max_deficit_from_vertex_rates(g, rate);
}

double mrw_edge_deficit_exact(const Graph& g, std::size_t k, double budget) {
  const std::uint64_t steps = multiple_rw_steps_per_walker(budget, k, 1.0);
  if (steps == 0) {
    throw std::invalid_argument("mrw_edge_deficit_exact: budget too small");
  }
  return srw_edge_deficit_exact(g, steps);
}

std::vector<double> fs_vertex_edge_rates_mc(const Graph& g, std::size_t m,
                                            std::uint64_t steps,
                                            std::size_t runs, Rng& rng) {
  if (m == 0 || runs == 0) {
    throw std::invalid_argument("fs_vertex_edge_rates_mc: m, runs >= 1");
  }
  const StartSampler starts(g, StartMode::kUniform);
  // Advance steps-1 FS transitions; the Rao-Blackwell contribution is the
  // conditional law of the step-th (last) edge given the frontier.
  const FrontierSampler::Config config{.dimension = m,
                                       .steps = steps ? steps - 1 : 0};
  std::vector<double> acc(g.num_vertices(), 0.0);
  StreamEventBlock block;

  for (std::size_t r = 0; r < runs; ++r) {
    FrontierCursor cursor(g, config, rng, starts);
    while (cursor.next_batch(block, block.capacity()) > 0) {
    }
    rng = cursor.rng();
    double total_deg = 0.0;
    for (VertexId v : cursor.frontier()) {
      total_deg += static_cast<double>(g.degree(v));
    }
    const double inv_d = 1.0 / total_deg;
    for (VertexId v : cursor.frontier()) acc[v] += inv_d;
  }

  // E[c_u/D] is already the probability of each individual edge out of u
  // (a walker at u is selected with prob c_u·deg(u)/D and picks a specific
  // neighbor with prob 1/deg(u)); scale by vol so stationarity reads 1.0.
  const double vol = static_cast<double>(g.volume());
  std::vector<double> rate(g.num_vertices(), 0.0);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (g.degree(u) == 0) continue;
    rate[u] = acc[u] / static_cast<double>(runs) * vol;
  }
  return rate;
}

double fs_edge_deficit_mc(const Graph& g, std::size_t m, std::uint64_t steps,
                          std::size_t runs, Rng& rng) {
  const auto rate = fs_vertex_edge_rates_mc(g, m, steps, runs, rng);
  return max_deficit_from_vertex_rates(g, rate);
}

}  // namespace frontier
