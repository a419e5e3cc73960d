#include "sampling/walk.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace frontier {
namespace {

TEST(StartSampler, RejectsEmptyOrEdgelessGraph) {
  const Graph empty;
  EXPECT_THROW(StartSampler(empty, StartMode::kUniform),
               std::invalid_argument);
  GraphBuilder b(3);
  const Graph edgeless = b.build();
  EXPECT_THROW(StartSampler(edgeless, StartMode::kUniform),
               std::invalid_argument);
}

TEST(StartSampler, UniformNeverReturnsIsolatedVertex) {
  GraphBuilder b(10);
  b.add_undirected_edge(0, 1);  // vertices 2..9 isolated
  const Graph g = b.build();
  const StartSampler s(g, StartMode::kUniform);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const VertexId v = s.sample(rng);
    EXPECT_TRUE(v == 0 || v == 1);
  }
}

TEST(StartSampler, UniformIsUniformOverNonIsolated) {
  const Graph g = path_graph(4);
  const StartSampler s(g, StartMode::kUniform);
  Rng rng(2);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[s.sample(rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.01);
  }
}

TEST(StartSampler, DegreeProportionalMatchesDegrees) {
  const Graph g = star_graph(5);  // center deg 4, leaves deg 1; vol 8
  const StartSampler s(g, StartMode::kDegreeProportional);
  Rng rng(3);
  int center = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (s.sample(rng) == 0) ++center;
  }
  EXPECT_NEAR(static_cast<double>(center) / n, 0.5, 0.01);
}

TEST(StepUniformNeighbor, OnlyReturnsNeighbors) {
  const Graph g = cycle_graph(5);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const VertexId w = step_uniform_neighbor(g, 0, rng);
    EXPECT_TRUE(w == 1 || w == 4);
  }
}

TEST(StepUniformNeighbor, UniformOverNeighbors) {
  const Graph g = star_graph(5);
  Rng rng(5);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[step_uniform_neighbor(g, 0, rng)];
  for (VertexId leaf = 1; leaf < 5; ++leaf) {
    EXPECT_NEAR(static_cast<double>(counts[leaf]) / n, 0.25, 0.01);
  }
}

}  // namespace
}  // namespace frontier
