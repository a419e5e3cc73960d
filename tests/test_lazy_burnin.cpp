// Burn-in and lazy-walk options of SingleRandomWalk (Section 4.3 remedies).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "estimators/density.hpp"
#include "experiments/replication_runner.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sampling/single_rw.hpp"
#include "stats/accumulators.hpp"

namespace frontier {
namespace {

TEST(LazyWalk, ValidatesLaziness) {
  Rng rng(1);
  const Graph g = cycle_graph(4);
  EXPECT_THROW(SingleRandomWalk(g, {.steps = 1, .laziness = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(SingleRandomWalk(g, {.steps = 1, .laziness = -0.1}),
               std::invalid_argument);
}

TEST(LazyWalk, StaysReduceSampleCount) {
  Rng rng(2);
  const Graph g = cycle_graph(100);
  const SingleRandomWalk lazy(g, {.steps = 10000, .laziness = 0.5});
  const SampleRecord rec = lazy.run(rng);
  EXPECT_LT(rec.edges.size(), 6000u);
  EXPECT_GT(rec.edges.size(), 4000u);
  EXPECT_DOUBLE_EQ(rec.cost, 10001.0);
}

TEST(LazyWalk, RecordedEdgesAreRealEdges) {
  Rng rng(3);
  const Graph g = barabasi_albert(100, 2, rng);
  const SingleRandomWalk lazy(g, {.steps = 2000, .laziness = 0.3});
  for (const Edge& e : lazy.run(rng).edges) {
    EXPECT_NE(e.u, e.v);
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(LazyWalk, StationaryLawUnchanged) {
  // Laziness does not alter the stationary distribution.
  Rng rng(4);
  const Graph g = star_graph(6);  // center visited half the time
  const SingleRandomWalk lazy(g, {.steps = 400000, .laziness = 0.4});
  const SampleRecord rec = lazy.run(rng);
  double center = 0.0;
  for (const Edge& e : rec.edges) {
    if (e.v == 0) center += 1.0;
  }
  EXPECT_NEAR(center / static_cast<double>(rec.edges.size()), 0.5, 0.01);
}

TEST(BurnIn, DiscardsButPays) {
  Rng rng(5);
  const Graph g = cycle_graph(50);
  const SingleRandomWalk walker(g, {.steps = 100, .burn_in = 400});
  const SampleRecord rec = walker.run(rng);
  EXPECT_EQ(rec.edges.size(), 100u);
  EXPECT_DOUBLE_EQ(rec.cost, 501.0);
}

TEST(BurnIn, FirstRecordedEdgeIsNotAtStart) {
  // With a long burn-in on a path-like graph, the recorded walk should
  // usually begin away from the start vertex.
  Rng rng(6);
  const Graph g = cycle_graph(1000);
  const SingleRandomWalk walker(
      g, {.steps = 1, .fixed_start = VertexId{0}, .burn_in = 2000});
  int moved = 0;
  for (int r = 0; r < 50; ++r) {
    const SampleRecord rec = walker.run(rng);
    if (rec.edges.front().u != 0) ++moved;
  }
  EXPECT_GT(moved, 40);
}

TEST(BurnIn, ReducesTransientBiasOnSkewedStart) {
  // Estimating the fraction of degree-1 vertices on a star-of-stars graph
  // starting from the hub: burn-in reduces the start-dependence.
  Rng rng(7);
  const Graph g = barabasi_albert(2000, 1, rng);  // tree: slow mixing
  const auto pred = [&g](VertexId v) { return g.degree(v) == 1; };
  const double truth = exact_label_density(g, pred);

  const auto bias_with = [&](std::uint64_t burn) {
    const SingleRandomWalk walker(
        g, {.steps = 200, .fixed_start = VertexId{0}, .burn_in = burn});
    const ReplicationRunner runner(600, 99);
    ScalarErrorAccumulator acc = runner.map_reduce(
        ScalarErrorAccumulator(truth),
        [&](std::size_t, Rng& run_rng) {
          ScalarErrorAccumulator a(truth);
          a.add_run(estimate_vertex_label_density(
              g, walker.run(run_rng).edges, pred));
          return a;
        },
        [](ScalarErrorAccumulator& a, ScalarErrorAccumulator&& b) {
          a.merge(b);
        });
    return std::abs(acc.relative_bias());
  };
  // Vertex 0 is the oldest (hub-like) vertex: starting there biases the
  // short walk toward the core. Burn-in dilutes that.
  EXPECT_LT(bias_with(2000), bias_with(0) + 0.02);
}

}  // namespace
}  // namespace frontier
