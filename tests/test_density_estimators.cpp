#include "estimators/density.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sampling/single_rw.hpp"

namespace frontier {
namespace {

// Enumerates every ordered symmetric edge once — a "full pass". Feeding a
// full pass to an eq.-7 style estimator must reproduce the exact value,
// because each vertex v appears deg(v) times with weight 1/deg(v).
std::vector<Edge> full_edge_pass(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.volume());
  for (EdgeIndex j = 0; j < g.volume(); ++j) edges.push_back(g.edge_at(j));
  return edges;
}

TEST(VertexLabelDensity, ExactOnFullPass) {
  Rng rng(1);
  const Graph g = barabasi_albert(300, 2, rng);
  const auto edges = full_edge_pass(g);
  const auto pred = [](VertexId v) { return v % 3 == 0; };
  const double truth = exact_label_density(g, pred);
  const double est = estimate_vertex_label_density(g, edges, pred);
  EXPECT_NEAR(est, truth, 1e-9);
}

TEST(VertexLabelDensity, EmptyInputIsZero) {
  const Graph g = cycle_graph(4);
  EXPECT_DOUBLE_EQ(
      estimate_vertex_label_density(g, {}, [](VertexId) { return true; }),
      0.0);
}

TEST(VertexLabelDensity, AllAndNoneLabels) {
  Rng rng(2);
  const Graph g = barabasi_albert(100, 2, rng);
  const auto edges = full_edge_pass(g);
  EXPECT_DOUBLE_EQ(
      estimate_vertex_label_density(g, edges, [](VertexId) { return true; }),
      1.0);
  EXPECT_DOUBLE_EQ(
      estimate_vertex_label_density(g, edges, [](VertexId) { return false; }),
      0.0);
}

TEST(VertexLabelDensity, ConvergesOnRandomWalkSamples) {
  // SLLN (Theorem 4.1): a long stationary RW estimate converges to the
  // exact density even though the walk oversamples high-degree vertices.
  Rng rng(3);
  const Graph g = barabasi_albert(200, 3, rng);
  const auto pred = [&g](VertexId v) { return g.degree(v) <= 6; };
  const double truth = exact_label_density(g, pred);
  const SingleRandomWalk walker(g, {.steps = 400000});
  const SampleRecord rec = walker.run(rng);
  const double est = estimate_vertex_label_density(g, rec.edges, pred);
  EXPECT_NEAR(est, truth, 0.02);
}

TEST(EdgeLabelDensity, CountsOverLabeledSubsequence) {
  // Labeled = edges out of even vertices; label present = target is odd.
  const Graph g = cycle_graph(4);
  std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 1}};
  const double est = estimate_edge_label_density(
      g, edges, [](const Edge& e) { return e.u % 2 == 0; },
      [](const Edge& e) { return e.v % 2 == 1; });
  // Labeled: (0,1), (2,3), (2,1) -> labels present: (0,1), (2,3), (2,1).
  EXPECT_DOUBLE_EQ(est, 1.0);
}

TEST(EdgeLabelDensity, NoLabeledEdgesGivesZero) {
  const Graph g = cycle_graph(4);
  std::vector<Edge> edges{{1, 1}, {3, 3}};
  const double est = estimate_edge_label_density(
      g, edges, [](const Edge&) { return false; },
      [](const Edge&) { return true; });
  EXPECT_DOUBLE_EQ(est, 0.0);
}

TEST(EdgeLabelDensity, ExactOnFullDirectedPass) {
  // Over a full pass of E, the fraction of E_d edges whose target has
  // even id must match direct enumeration.
  Rng rng(4);
  const Graph g = directed_preferential(200, 2, 0.3, rng);
  const auto edges = full_edge_pass(g);
  double labeled = 0.0;
  double hits = 0.0;
  for (const Edge& e : edges) {
    if (!g.has_directed_edge(e.u, e.v)) continue;
    labeled += 1.0;
    if (e.v % 2 == 0) hits += 1.0;
  }
  const double est = estimate_edge_label_density(
      g, edges,
      [&g](const Edge& e) { return g.has_directed_edge(e.u, e.v); },
      [](const Edge& e) { return e.v % 2 == 0; });
  EXPECT_NEAR(est, hits / labeled, 1e-12);
}

TEST(GroupDensities, ExactOnFullPass) {
  Rng rng(5);
  const Graph g = barabasi_albert(150, 2, rng);
  // Three groups: multiples of 2, of 3, of 5.
  std::vector<std::vector<std::uint32_t>> membership(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v % 2 == 0) membership[v].push_back(0);
    if (v % 3 == 0) membership[v].push_back(1);
    if (v % 5 == 0) membership[v].push_back(2);
  }
  const auto groups_of = [&membership](VertexId v) {
    return std::span<const std::uint32_t>(membership[v]);
  };
  const auto est =
      estimate_group_densities(g, full_edge_pass(g), groups_of, 3);
  for (std::uint32_t grp = 0; grp < 3; ++grp) {
    const double truth = exact_label_density(g, [&](VertexId v) {
      const auto gs = groups_of(v);
      return std::find(gs.begin(), gs.end(), grp) != gs.end();
    });
    EXPECT_NEAR(est[grp], truth, 1e-9) << "group " << grp;
  }
}

TEST(GroupDensitiesUniform, MatchesEmpiricalFractions) {
  std::vector<std::vector<std::uint32_t>> membership{{0}, {0, 1}, {}, {1}};
  const auto groups_of = [&membership](VertexId v) {
    return std::span<const std::uint32_t>(membership[v]);
  };
  const std::vector<VertexId> samples{0, 1, 2, 3};
  const auto est = estimate_group_densities_uniform(samples, groups_of, 2);
  EXPECT_DOUBLE_EQ(est[0], 0.5);
  EXPECT_DOUBLE_EQ(est[1], 0.5);
}

}  // namespace
}  // namespace frontier
