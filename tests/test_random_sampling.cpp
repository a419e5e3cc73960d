#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sampling/random_edge.hpp"
#include "sampling/random_vertex.hpp"

namespace frontier {
namespace {

TEST(RandomVertexSampler, ValidatesConfig) {
  Rng rng(1);
  const Graph g = cycle_graph(4);
  EXPECT_THROW(
      RandomVertexSampler(g, {.budget = 10, .cost = {.hit_ratio = 0.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      RandomVertexSampler(g, {.budget = 10, .cost = {.jump_cost = 0.0}}),
      std::invalid_argument);
  EXPECT_THROW(RandomVertexSampler(Graph{}, {.budget = 10}),
               std::invalid_argument);
  // NaN slips through `x <= 0 || x > 1`-style checks, and an infinite
  // budget would make run() sample until memory runs out.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      RandomVertexSampler(g, {.budget = 10, .cost = {.hit_ratio = nan}}),
      std::invalid_argument);
  EXPECT_THROW(
      RandomVertexSampler(g, {.budget = 10, .cost = {.jump_cost = nan}}),
      std::invalid_argument);
  EXPECT_THROW(RandomVertexSampler(
                   g, {.budget = std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(RandomVertexSampler(g, {.budget = nan}), std::invalid_argument);
}

TEST(RandomVertexSampler, FullHitRatioSpendsExactly) {
  Rng rng(2);
  const Graph g = cycle_graph(10);
  const RandomVertexSampler rv(g, {.budget = 50.0});
  const SampleRecord rec = rv.run(rng);
  EXPECT_EQ(rec.vertices.size(), 50u);
  EXPECT_DOUBLE_EQ(rec.cost, 50.0);
}

TEST(RandomVertexSampler, LowHitRatioShrinksYield) {
  Rng rng(3);
  const Graph g = cycle_graph(10);
  const RandomVertexSampler rv(
      g, {.budget = 10000.0, .cost = {.hit_ratio = 0.1}});
  const SampleRecord rec = rv.run(rng);
  // Expected yield = budget * hit_ratio = 1000.
  EXPECT_NEAR(static_cast<double>(rec.vertices.size()), 1000.0, 120.0);
  EXPECT_LE(rec.cost, 10000.0 + 1e-9);
}

TEST(RandomVertexSampler, SamplesUniformly) {
  Rng rng(4);
  const Graph g = star_graph(5);  // degree-skewed; RV must stay uniform
  const RandomVertexSampler rv(g, {.budget = 100000.0});
  const SampleRecord rec = rv.run(rng);
  std::vector<double> freq(g.num_vertices(), 0.0);
  for (VertexId v : rec.vertices) freq[v] += 1.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(freq[v] / static_cast<double>(rec.vertices.size()), 0.2,
                0.01);
  }
}

TEST(RandomEdgeSampler, ValidatesConfig) {
  Rng rng(5);
  const Graph g = cycle_graph(4);
  GraphBuilder empty_builder(3);
  const Graph edgeless = empty_builder.build();
  EXPECT_THROW(RandomEdgeSampler(edgeless, {.budget = 10}),
               std::invalid_argument);
  EXPECT_THROW(RandomEdgeSampler(g, {.budget = 10, .hit_ratio = 2.0}),
               std::invalid_argument);
  EXPECT_THROW(RandomEdgeSampler(g, {.budget = 10, .edge_cost = 0.0}),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RandomEdgeSampler(g, {.budget = 10, .hit_ratio = nan}),
               std::invalid_argument);
  EXPECT_THROW(RandomEdgeSampler(g, {.budget = 10, .edge_cost = nan}),
               std::invalid_argument);
  EXPECT_THROW(RandomEdgeSampler(
                   g, {.budget = std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(RandomEdgeSampler(g, {.budget = nan}), std::invalid_argument);
}

TEST(RandomEdgeSampler, CostTwoPerEdge) {
  Rng rng(6);
  const Graph g = cycle_graph(6);
  const RandomEdgeSampler re(g, {.budget = 100.0});
  const SampleRecord rec = re.run(rng);
  EXPECT_EQ(rec.edges.size(), 50u);  // 100 budget / cost 2
  EXPECT_DOUBLE_EQ(rec.cost, 100.0);
}

TEST(RandomEdgeSampler, SamplesOrderedEdgesUniformly) {
  Rng rng(7);
  const Graph g = star_graph(4);  // 6 ordered edges
  const RandomEdgeSampler re(g, {.budget = 240000.0});
  const SampleRecord rec = re.run(rng);
  std::vector<double> count(g.num_vertices(), 0.0);
  for (const Edge& e : rec.edges) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    count[e.v] += 1.0;
  }
  // Target vertex law = deg(v)/vol: center 1/2, each leaf 1/6.
  const double total = static_cast<double>(rec.edges.size());
  EXPECT_NEAR(count[0] / total, 0.5, 0.01);
  for (VertexId leaf = 1; leaf < 4; ++leaf) {
    EXPECT_NEAR(count[leaf] / total, 1.0 / 6.0, 0.01);
  }
}

TEST(RandomEdgeSampler, HitRatioReducesYield) {
  Rng rng(8);
  const Graph g = cycle_graph(10);
  const RandomEdgeSampler re(
      g, {.budget = 20000.0, .edge_cost = 2.0, .hit_ratio = 0.01});
  const SampleRecord rec = re.run(rng);
  // Expected yield = budget * hit / cost = 100.
  EXPECT_NEAR(static_cast<double>(rec.edges.size()), 100.0, 40.0);
}

TEST(RandomSamplers, NeverExceedBudget) {
  Rng rng(9);
  const Graph g = barabasi_albert(100, 2, rng);
  for (double budget : {1.0, 7.0, 99.5, 1000.0}) {
    const RandomVertexSampler rv(
        g, {.budget = budget, .cost = {.hit_ratio = 0.5}});
    EXPECT_LE(rv.run(rng).cost, budget + 1e-9);
    const RandomEdgeSampler re(
        g, {.budget = budget, .hit_ratio = 0.5});
    EXPECT_LE(re.run(rng).cost, budget + 1e-9);
  }
}

}  // namespace
}  // namespace frontier
