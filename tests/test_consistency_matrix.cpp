// Property suite: every uniform-edge sampler is interchangeable with every
// edge-based estimator. For each (sampler, characteristic) pair, a long
// stationary sample must converge to the exact value — the Theorem 4.1
// SLLN applied across the whole library surface.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "estimators/assortativity.hpp"
#include "estimators/clustering.hpp"
#include "estimators/density.hpp"
#include "estimators/graph_moments.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/parallel_fs.hpp"
#include "sampling/random_edge.hpp"
#include "sampling/single_rw.hpp"

namespace frontier {
namespace {

struct SamplerCase {
  std::string name;
  std::function<std::vector<Edge>(const Graph&, Rng&)> sample;
};

std::vector<SamplerCase> uniform_edge_samplers() {
  // Each produces ~200k stationary edge samples.
  return {
      {"SingleRW",
       [](const Graph& g, Rng& rng) {
         return SingleRandomWalk(g, {.steps = 200000}).run(rng).edges;
       }},
      {"LazySingleRW",
       [](const Graph& g, Rng& rng) {
         return SingleRandomWalk(g, {.steps = 300000, .laziness = 0.3})
             .run(rng)
             .edges;
       }},
      {"FrontierSampler",
       [](const Graph& g, Rng& rng) {
         return FrontierSampler(g, {.dimension = 25, .steps = 200000})
             .run(rng)
             .edges;
       }},
      {"ParallelFS",
       [](const Graph& g, Rng& rng) {
         return ParallelFrontierSampler(
                    g, {.dimension = 25,
                        .time_horizon = time_horizon_for_jumps(g, 25, 2e5)})
             .run(rng())
             .edges;
       }},
      {"RandomEdge",
       [](const Graph& g, Rng& rng) {
         return RandomEdgeSampler(g, {.budget = 400000.0, .edge_cost = 2.0})
             .run(rng)
             .edges;
       }},
  };
}

class SamplerEstimatorMatrix
    : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const Graph& graph() {
    static const Graph g = [] {
      Rng rng(77);
      // Small-world base: non-trivial clustering, assortativity, degree
      // spread — all characteristics are exercised.
      return watts_strogatz(400, 3, 0.2, rng);
    }();
    return g;
  }
};

TEST_P(SamplerEstimatorMatrix, AverageDegreeConverges) {
  const auto cases = uniform_edge_samplers();
  const auto& c = cases[GetParam()];
  Rng rng(1000 + GetParam());
  const auto edges = c.sample(graph(), rng);
  EXPECT_NEAR(estimate_average_degree(graph(), edges),
              graph().average_degree(), 0.03 * graph().average_degree())
      << c.name;
}

TEST_P(SamplerEstimatorMatrix, ClusteringConverges) {
  const auto cases = uniform_edge_samplers();
  const auto& c = cases[GetParam()];
  Rng rng(2000 + GetParam());
  const auto edges = c.sample(graph(), rng);
  const double truth = exact_global_clustering(graph());
  EXPECT_NEAR(estimate_global_clustering(graph(), edges), truth,
              0.05 * truth + 0.005)
      << c.name;
}

TEST_P(SamplerEstimatorMatrix, AssortativityConverges) {
  const auto cases = uniform_edge_samplers();
  const auto& c = cases[GetParam()];
  Rng rng(3000 + GetParam());
  const auto edges = c.sample(graph(), rng);
  EXPECT_NEAR(estimate_assortativity(graph(), edges),
              exact_assortativity(graph()), 0.05)
      << c.name;
}

TEST_P(SamplerEstimatorMatrix, LabelDensityConverges) {
  const auto cases = uniform_edge_samplers();
  const auto& c = cases[GetParam()];
  Rng rng(4000 + GetParam());
  const auto edges = c.sample(graph(), rng);
  const auto pred = [](VertexId v) { return v % 7 == 0; };
  EXPECT_NEAR(estimate_vertex_label_density(graph(), edges, pred),
              exact_label_density(graph(), pred), 0.02)
      << c.name;
}

TEST_P(SamplerEstimatorMatrix, SecondDegreeMomentConverges) {
  const auto cases = uniform_edge_samplers();
  const auto& c = cases[GetParam()];
  Rng rng(5000 + GetParam());
  const auto edges = c.sample(graph(), rng);
  double truth = 0.0;
  for (VertexId v = 0; v < graph().num_vertices(); ++v) {
    const double d = graph().degree(v);
    truth += d * d;
  }
  truth /= static_cast<double>(graph().num_vertices());
  EXPECT_NEAR(estimate_degree_moment(graph(), edges, 2), truth, 0.05 * truth)
      << c.name;
}

std::string sampler_case_name(
    const ::testing::TestParamInfo<std::size_t>& info) {
  switch (info.param) {
    case 0: return "SingleRW";
    case 1: return "LazySingleRW";
    case 2: return "FrontierSampler";
    case 3: return "DistributedFS";
    default: return "RandomEdge";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSamplers, SamplerEstimatorMatrix,
                         ::testing::Range<std::size_t>(0, 5),
                         sampler_case_name);

}  // namespace
}  // namespace frontier
