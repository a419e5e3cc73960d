#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/single_rw.hpp"

namespace frontier {
namespace {

TEST(SingleRandomWalk, ProducesRequestedSteps) {
  Rng rng(1);
  const Graph g = barabasi_albert(100, 2, rng);
  const SingleRandomWalk walker(g, {.steps = 250});
  const SampleRecord rec = walker.run(rng);
  EXPECT_EQ(rec.edges.size(), 250u);
  EXPECT_EQ(rec.starts.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.cost, 251.0);
}

TEST(SingleRandomWalk, FixedStartIsHonored) {
  Rng rng(2);
  const Graph g = cycle_graph(8);
  const SingleRandomWalk walker(g, {.steps = 10, .fixed_start = VertexId{3}});
  const SampleRecord rec = walker.run(rng);
  EXPECT_EQ(rec.starts[0], 3u);
  EXPECT_EQ(rec.edges.front().u, 3u);
}

TEST(SingleRandomWalk, FixedStartValidation) {
  Rng rng(3);
  GraphBuilder b(3);
  b.add_undirected_edge(0, 1);  // vertex 2 isolated
  const Graph g = b.build();
  EXPECT_THROW(SingleRandomWalk(g, {.steps = 1, .fixed_start = VertexId{9}}),
               std::out_of_range);
  EXPECT_THROW(SingleRandomWalk(g, {.steps = 1, .fixed_start = VertexId{2}}),
               std::invalid_argument);
}

TEST(SingleRandomWalk, StationaryVisitLawIsDegreeProportional) {
  // Long walk on a connected non-bipartite graph: vertex visit frequency
  // converges to deg(v)/vol(V) (Section 4).
  Rng rng(4);
  const Graph g = barabasi_albert(50, 2, rng);
  const SingleRandomWalk walker(g, {.steps = 400000});
  const SampleRecord rec = walker.run(rng);
  std::vector<double> freq(g.num_vertices(), 0.0);
  for (const Edge& e : rec.edges) freq[e.v] += 1.0;
  const double vol = static_cast<double>(g.volume());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double expect = static_cast<double>(g.degree(v)) / vol;
    EXPECT_NEAR(freq[v] / static_cast<double>(rec.edges.size()), expect,
                0.25 * expect + 0.001)
        << "vertex " << v;
  }
}

TEST(SingleRandomWalk, EdgesAreChainedGraphEdges) {
  Rng rng(5);
  const Graph g = barabasi_albert(200, 2, rng);
  const SingleRandomWalk walker(g, {.steps = 500, .fixed_start = VertexId{0}});
  const SampleRecord rec = walker.run(rng);
  ASSERT_EQ(rec.edges.size(), 500u);
  EXPECT_EQ(rec.edges.front().u, 0u);
  for (std::size_t i = 0; i < rec.edges.size(); ++i) {
    EXPECT_TRUE(g.has_edge(rec.edges[i].u, rec.edges[i].v)) << "step " << i;
    if (i > 0) {
      EXPECT_EQ(rec.edges[i].u, rec.edges[i - 1].v) << "step " << i;
    }
  }
}

TEST(SingleRandomWalk, ZeroStepsIsEmpty) {
  Rng rng(7);
  const Graph g = cycle_graph(4);
  const SingleRandomWalk walker(g, {.steps = 0, .fixed_start = VertexId{2}});
  const SampleRecord rec = walker.run(rng);
  EXPECT_TRUE(rec.edges.empty());
  EXPECT_EQ(rec.starts, std::vector<VertexId>{2});
  EXPECT_DOUBLE_EQ(rec.cost, 1.0);
}

TEST(MultipleRandomWalks, RejectsZeroWalkers) {
  Rng rng(6);
  const Graph g = cycle_graph(5);
  EXPECT_THROW(MultipleRandomWalks(g, {.num_walkers = 0}),
               std::invalid_argument);
}

TEST(MultipleRandomWalks, EdgeAndStartCounts) {
  Rng rng(7);
  const Graph g = barabasi_albert(200, 2, rng);
  const MultipleRandomWalks walkers(
      g, {.num_walkers = 8, .steps_per_walker = 25});
  const SampleRecord rec = walkers.run(rng);
  EXPECT_EQ(rec.edges.size(), 200u);
  EXPECT_EQ(rec.starts.size(), 8u);
  EXPECT_DOUBLE_EQ(rec.cost, 8.0 * 26.0);
}

TEST(MultipleRandomWalks, SegmentsAreIndependentChains) {
  Rng rng(8);
  const Graph g = barabasi_albert(100, 2, rng);
  const std::size_t m = 4;
  const std::uint64_t steps = 50;
  const MultipleRandomWalks walkers(
      g, {.num_walkers = m, .steps_per_walker = steps});
  const SampleRecord rec = walkers.run(rng);
  for (std::size_t w = 0; w < m; ++w) {
    const std::size_t base = w * steps;
    EXPECT_EQ(rec.edges[base].u, rec.starts[w]) << "walker " << w;
    for (std::size_t i = 1; i < steps; ++i) {
      EXPECT_EQ(rec.edges[base + i].u, rec.edges[base + i - 1].v);
    }
  }
}

TEST(MultipleRandomWalks, WalkersLandInTheirStartComponents) {
  // Two disconnected triangles: a walker can never cross over.
  GraphBuilder b(6);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);
  b.add_undirected_edge(2, 0);
  b.add_undirected_edge(3, 4);
  b.add_undirected_edge(4, 5);
  b.add_undirected_edge(5, 3);
  const Graph g = b.build();
  Rng rng(9);
  const MultipleRandomWalks walkers(
      g, {.num_walkers = 6, .steps_per_walker = 30});
  const SampleRecord rec = walkers.run(rng);
  for (std::size_t w = 0; w < 6; ++w) {
    const bool start_in_a = rec.starts[w] < 3;
    for (std::size_t i = 0; i < 30; ++i) {
      const Edge& e = rec.edges[w * 30 + i];
      EXPECT_EQ(e.v < 3, start_in_a) << "walker " << w << " escaped";
    }
  }
}

TEST(MultipleRandomWalks, DegreeProportionalStartMode) {
  Rng rng(10);
  const Graph g = star_graph(6);
  const MultipleRandomWalks walkers(
      g, {.num_walkers = 2000, .steps_per_walker = 0,
          .start = StartMode::kDegreeProportional});
  const SampleRecord rec = walkers.run(rng);
  int center = 0;
  for (VertexId v : rec.starts) {
    if (v == 0) ++center;
  }
  // Center has deg 5 of vol 10 -> probability 1/2.
  EXPECT_NEAR(static_cast<double>(center) / 2000.0, 0.5, 0.05);
}

}  // namespace
}  // namespace frontier
