#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"

#include <cmath>

#include <numeric>
#include <stdexcept>

#include "graph/components.hpp"
#include "graph/metrics.hpp"

namespace frontier {
namespace {

TEST(BarabasiAlbert, ProducesConnectedGraph) {
  Rng rng(1);
  const Graph g = barabasi_albert(500, 2, rng);
  EXPECT_EQ(g.num_vertices(), 500u);
  EXPECT_TRUE(is_connected(g));
}

TEST(BarabasiAlbert, AverageDegreeNearTwiceLinks) {
  Rng rng(2);
  const Graph g = barabasi_albert(5000, 3, rng);
  EXPECT_NEAR(g.average_degree(), 6.0, 0.5);
}

TEST(BarabasiAlbert, MinimumDegreeIsLinks) {
  Rng rng(3);
  const std::size_t links = 2;
  const Graph g = barabasi_albert(300, links, rng);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(g.degree(v), links);
  }
}

TEST(BarabasiAlbert, HasHeavyTail) {
  Rng rng(4);
  const Graph g = barabasi_albert(5000, 2, rng);
  // Preferential attachment: the hub should be far above the mean.
  EXPECT_GT(g.max_degree(), 10 * g.average_degree());
}

TEST(BarabasiAlbert, RejectsBadParameters) {
  Rng rng(5);
  EXPECT_THROW((void)barabasi_albert(5, 0, rng), std::invalid_argument);
  EXPECT_THROW((void)barabasi_albert(2, 2, rng), std::invalid_argument);
}

TEST(DirectedPreferential, InDegreeTailHeavierThanOut) {
  Rng rng(6);
  const Graph g = directed_preferential(3000, 3, 0.3, rng);
  std::uint32_t max_in = 0;
  std::uint32_t max_out = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_in = std::max(max_in, g.in_degree(v));
    max_out = std::max(max_out, g.out_degree(v));
  }
  EXPECT_GT(max_in, max_out);
}

TEST(DirectedPreferential, FullReciprocityMakesSymmetricDegrees) {
  Rng rng(7);
  const Graph g = directed_preferential(500, 2, 1.0, rng);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.in_degree(v), g.out_degree(v));
  }
}

TEST(ErdosRenyiGnp, EdgeCountNearExpectation) {
  Rng rng(8);
  const std::size_t n = 2000;
  const double p = 0.005;
  const Graph g = erdos_renyi_gnp(n, p, rng);
  const double expected = p * static_cast<double>(n) * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_undirected_edges()), expected,
              4.0 * std::sqrt(expected));
}

TEST(ErdosRenyiGnp, ZeroProbabilityGivesNoEdges) {
  Rng rng(9);
  const Graph g = erdos_renyi_gnp(100, 0.0, rng);
  EXPECT_EQ(g.num_undirected_edges(), 0u);
}

TEST(ErdosRenyiGnp, ProbabilityOneGivesCompleteGraph) {
  Rng rng(10);
  const Graph g = erdos_renyi_gnp(30, 1.0, rng);
  EXPECT_EQ(g.num_undirected_edges(), 30u * 29u / 2u);
}

TEST(ConfigurationModel, RespectsDegreeSumApproximately) {
  Rng rng(13);
  std::vector<std::uint32_t> degrees(1000, 3);
  degrees[0] = 4;
  degrees[1] = 5;  // make the sum even: 3*998 + 9 = 3003 odd -> adjust
  degrees[2] = 4;
  const std::uint64_t sum =
      std::accumulate(degrees.begin(), degrees.end(), std::uint64_t{0});
  ASSERT_EQ(sum % 2, 0u);
  const Graph g = configuration_model(degrees, rng);
  // Erased self-loops/multi-edges lose only a small fraction of stubs.
  EXPECT_GT(g.volume(), static_cast<std::uint64_t>(0.97 * sum));
  EXPECT_LE(g.volume(), sum);
}

TEST(ConfigurationModel, OddDegreeSumRejected) {
  Rng rng(14);
  std::vector<std::uint32_t> degrees{3, 2, 2};
  EXPECT_THROW((void)configuration_model(degrees, rng),
               std::invalid_argument);
}

TEST(PowerLawDegrees, BoundsAndEvenSum) {
  Rng rng(15);
  const auto degrees = power_law_degrees(5000, 2.3, 1, 100, rng);
  std::uint64_t sum = 0;
  for (auto d : degrees) {
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 101u);  // +1 possible from the even-sum fix-up
    sum += d;
  }
  EXPECT_EQ(sum % 2, 0u);
}

TEST(PowerLawDegrees, LowDegreesDominate) {
  Rng rng(16);
  const auto degrees = power_law_degrees(10000, 2.5, 1, 1000, rng);
  std::size_t ones = 0;
  for (auto d : degrees) {
    if (d == 1) ++ones;
  }
  EXPECT_GT(ones, degrees.size() / 2);
}

TEST(WattsStrogatz, ZeroBetaIsRingLattice) {
  Rng rng(17);
  const Graph g = watts_strogatz(50, 2, 0.0, rng);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.degree(v), 4u);
  }
  EXPECT_TRUE(is_connected(g));
}

TEST(WattsStrogatz, RewiringPreservesEdgeBudget) {
  Rng rng(18);
  const Graph g = watts_strogatz(200, 3, 0.5, rng);
  // Rewiring can merge duplicates; count stays close to n*k.
  EXPECT_LE(g.num_undirected_edges(), 200u * 3u);
  EXPECT_GT(g.num_undirected_edges(), 190u * 3u);
}

TEST(DeterministicGraphs, PathCycleStarCompleteGrid) {
  const Graph path = path_graph(5);
  EXPECT_EQ(path.num_undirected_edges(), 4u);
  EXPECT_EQ(path.degree(0), 1u);
  EXPECT_EQ(path.degree(2), 2u);

  const Graph cycle = cycle_graph(6);
  EXPECT_EQ(cycle.num_undirected_edges(), 6u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(cycle.degree(v), 2u);

  const Graph star = star_graph(7);
  EXPECT_EQ(star.degree(0), 6u);
  for (VertexId v = 1; v < 7; ++v) EXPECT_EQ(star.degree(v), 1u);

  const Graph k5 = complete_graph(5);
  EXPECT_EQ(k5.num_undirected_edges(), 10u);

  const Graph k23 = complete_bipartite(2, 3);
  EXPECT_EQ(k23.num_undirected_edges(), 6u);
  EXPECT_EQ(k23.degree(0), 3u);
  EXPECT_EQ(k23.degree(2), 2u);

  const Graph grid = grid_graph(3, 4);
  EXPECT_EQ(grid.num_vertices(), 12u);
  EXPECT_EQ(grid.num_undirected_edges(), 3u * 3u + 2u * 4u);
}

TEST(DisjointUnion, PreservesComponentsAndDirections) {
  GraphBuilder b(2);
  b.add_edge(0, 1);  // directed only
  const Graph directed_pair = b.build();
  const std::vector<Graph> parts{path_graph(3), directed_pair};
  const Graph u = disjoint_union(parts);
  EXPECT_EQ(u.num_vertices(), 5u);
  EXPECT_EQ(u.num_directed_edges(), 2u * 2u + 1u);
  EXPECT_TRUE(u.has_directed_edge(3, 4));
  EXPECT_FALSE(u.has_directed_edge(4, 3));
  EXPECT_EQ(connected_components(u).num_components(), 2u);
}

TEST(JoinBySingleEdge, ConnectsAtMinimumDegreeVertices) {
  // Star: center 0 has max degree; leaves have degree 1 (vertex 1 is the
  // smallest-id leaf). Path of 2: both ends degree 1 (vertex 0 picked).
  const Graph a = star_graph(5);
  const Graph b = path_graph(2);
  const Graph joined = join_by_single_edge(a, b);
  EXPECT_EQ(joined.num_vertices(), 7u);
  EXPECT_TRUE(is_connected(joined));
  EXPECT_TRUE(joined.has_edge(1, 5));  // leaf 1 <-> shifted vertex 0
  EXPECT_EQ(joined.num_undirected_edges(),
            a.num_undirected_edges() + b.num_undirected_edges() + 1);
}

TEST(JoinBySingleEdge, GabShapeMatchesPaper) {
  // Two BA graphs, average degrees ~2 and ~10, single connecting edge
  // (Section 6.1's G_AB).
  Rng rng(19);
  const Graph ga = barabasi_albert(2000, 1, rng);
  const Graph gb = barabasi_albert(2000, 5, rng);
  const Graph gab = join_by_single_edge(ga, gb);
  EXPECT_TRUE(is_connected(gab));
  EXPECT_NEAR(ga.average_degree(), 2.0, 0.3);
  EXPECT_NEAR(gb.average_degree(), 10.0, 0.5);
  EXPECT_EQ(gab.num_undirected_edges(),
            ga.num_undirected_edges() + gb.num_undirected_edges() + 1);
}

class GeneratorDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorDeterminism, SameSeedSameGraph) {
  Rng rng1(GetParam());
  Rng rng2(GetParam());
  const Graph a = barabasi_albert(400, 2, rng1);
  const Graph b = barabasi_albert(400, 2, rng2);
  ASSERT_EQ(a.volume(), b.volume());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorDeterminism,
                         ::testing::Values(1, 42, 20100907));

}  // namespace
}  // namespace frontier
