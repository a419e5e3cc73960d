// Boundary conditions across the sampling layer: zero budgets, minimal
// graphs, and degenerate configurations must behave predictably rather
// than crash or spin.
#include <gtest/gtest.h>

#include <vector>

#include "estimators/degree_distribution.hpp"
#include "estimators/density.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sampling/coverage.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/parallel_fs.hpp"
#include "sampling/random_edge.hpp"
#include "sampling/random_vertex.hpp"
#include "sampling/single_rw.hpp"

namespace frontier {
namespace {

TEST(Boundary, ZeroStepWalksProduceNoEdges) {
  Rng rng(1);
  const Graph g = cycle_graph(5);
  EXPECT_TRUE(SingleRandomWalk(g, {.steps = 0}).run(rng).edges.empty());
  EXPECT_TRUE(FrontierSampler(g, {.dimension = 2, .steps = 0})
                  .run(rng)
                  .edges.empty());
  const MultipleRandomWalks mrw(g, {.num_walkers = 3, .steps_per_walker = 0});
  const SampleRecord rec = mrw.run(rng);
  EXPECT_TRUE(rec.edges.empty());
  EXPECT_EQ(rec.starts.size(), 3u);
}

TEST(Boundary, ZeroBudgetRandomSamplers) {
  Rng rng(2);
  const Graph g = cycle_graph(5);
  EXPECT_TRUE(RandomVertexSampler(g, {.budget = 0.0}).run(rng).vertices.empty());
  EXPECT_TRUE(RandomEdgeSampler(g, {.budget = 0.0}).run(rng).edges.empty());
  EXPECT_TRUE(RandomEdgeSampler(g, {.budget = 1.0}).run(rng).edges.empty())
      << "budget below the per-edge cost of 2 yields nothing";
}

TEST(Boundary, TwoVertexGraphWalks) {
  // K2 is bipartite — no stationary law — but finite walks must still be
  // well-formed edge sequences.
  const Graph g = path_graph(2);
  Rng rng(3);
  const SingleRandomWalk srw(g, {.steps = 10});
  const SampleRecord rec = srw.run(rng);
  ASSERT_EQ(rec.edges.size(), 10u);
  for (const Edge& e : rec.edges) {
    EXPECT_TRUE((e.u == 0 && e.v == 1) || (e.u == 1 && e.v == 0));
  }
}

TEST(Boundary, FrontierDimensionLargerThanGraph) {
  // More walkers than vertices is legal (multiset occupancy).
  const Graph g = complete_graph(4);
  Rng rng(4);
  const FrontierSampler fs(g, {.dimension = 20, .steps = 100});
  const SampleRecord rec = fs.run(rng);
  EXPECT_EQ(rec.starts.size(), 20u);
  EXPECT_EQ(rec.edges.size(), 100u);
}

TEST(Boundary, SingleWalkerParallelFs) {
  // One walker on a 2-regular graph jumps at rate 2, so a horizon of 25
  // gives ~50 edges, and with nothing to merge they form one walk. The
  // pool is clamped to one worker per walker.
  const Graph g = cycle_graph(6);
  const ParallelFrontierSampler pfs(
      g, {.dimension = 1, .time_horizon = 25.0, .threads = 4});
  const SampleRecord rec = pfs.run(5);
  ASSERT_EQ(rec.starts.size(), 1u);
  ASSERT_GT(rec.edges.size(), 20u);
  EXPECT_EQ(rec.cost, static_cast<double>(rec.edges.size() + 1));
  VertexId at = rec.starts[0];
  for (const Edge& e : rec.edges) {
    EXPECT_EQ(e.u, at);
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    at = e.v;
  }
}

TEST(Boundary, EstimatorsOnSingleSample) {
  const Graph g = complete_graph(4);
  const std::vector<Edge> one{{0, 1}};
  EXPECT_DOUBLE_EQ(estimate_vertex_label_density(
                       g, one, [](VertexId v) { return v == 1; }),
                   1.0);
  const auto theta = estimate_degree_distribution(g, one,
                                                  DegreeKind::kSymmetric);
  ASSERT_EQ(theta.size(), 4u);
  EXPECT_DOUBLE_EQ(theta[3], 1.0);
}

TEST(Boundary, CoverageWithNoCheckpoints) {
  const Graph g = cycle_graph(4);
  const std::vector<Edge> edges{{0, 1}};
  const CoverageCurve c = coverage_curve(g, edges, {});
  EXPECT_TRUE(c.distinct_vertices.empty());
  EXPECT_TRUE(c.checkpoints.empty());
}

TEST(Boundary, MinimalConnectedNonBipartiteStationarity) {
  // The smallest graph satisfying the paper's assumptions is a triangle;
  // everything should be exact there.
  const Graph g = complete_graph(3);
  Rng rng(6);
  const FrontierSampler fs(g, {.dimension = 2, .steps = 100000});
  const SampleRecord rec = fs.run(rng);
  std::vector<double> freq(3, 0.0);
  for (const Edge& e : rec.edges) freq[e.v] += 1.0;
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_NEAR(freq[v] / static_cast<double>(rec.edges.size()), 1.0 / 3.0,
                0.01);
  }
}

TEST(Boundary, LazinessNearOneStillTerminates) {
  Rng rng(7);
  const Graph g = cycle_graph(4);
  const SingleRandomWalk lazy(g, {.steps = 1000, .laziness = 0.99});
  const SampleRecord rec = lazy.run(rng);
  EXPECT_LT(rec.edges.size(), 60u);  // ~1% of queries move
  EXPECT_DOUBLE_EQ(rec.cost, 1001.0);
}

}  // namespace
}  // namespace frontier
