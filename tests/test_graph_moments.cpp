#include "estimators/graph_moments.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/single_rw.hpp"
#include "stream/block.hpp"
#include "stream/sinks.hpp"

namespace frontier {
namespace {

std::vector<Edge> full_edge_pass(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.volume());
  for (EdgeIndex j = 0; j < g.volume(); ++j) edges.push_back(g.edge_at(j));
  return edges;
}

TEST(AverageDegreeEstimator, ExactOnFullPass) {
  Rng rng(1);
  const Graph g = barabasi_albert(500, 3, rng);
  EXPECT_NEAR(estimate_average_degree(g, full_edge_pass(g)),
              g.average_degree(), 1e-9);
}

TEST(AverageDegreeEstimator, EmptyIsZero) {
  const Graph g = cycle_graph(4);
  EXPECT_DOUBLE_EQ(estimate_average_degree(g, {}), 0.0);
}

TEST(AverageDegreeEstimator, ConvergesOnWalk) {
  Rng rng(2);
  const Graph g = barabasi_albert(300, 2, rng);
  const SingleRandomWalk walker(g, {.steps = 200000});
  const double est = estimate_average_degree(g, walker.run(rng).edges);
  EXPECT_NEAR(est, g.average_degree(), 0.05 * g.average_degree());
}

TEST(AverageDegreeEstimator, UniformVariant) {
  const Graph g = star_graph(5);  // degrees 4,1,1,1,1 -> mean 8/5
  std::vector<VertexId> all{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(estimate_average_degree_uniform(g, all), 1.6);
  EXPECT_DOUBLE_EQ(estimate_average_degree_uniform(g, {}), 0.0);
}

TEST(DegreeMomentEstimator, FirstMomentIsAverageDegree) {
  Rng rng(3);
  const Graph g = barabasi_albert(200, 2, rng);
  const auto edges = full_edge_pass(g);
  EXPECT_NEAR(estimate_degree_moment(g, edges, 1),
              estimate_average_degree(g, edges), 1e-9);
}

TEST(DegreeMomentEstimator, SecondMomentExactOnFullPass) {
  Rng rng(4);
  const Graph g = barabasi_albert(200, 2, rng);
  double truth = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double d = g.degree(v);
    truth += d * d;
  }
  truth /= static_cast<double>(g.num_vertices());
  EXPECT_NEAR(estimate_degree_moment(g, full_edge_pass(g), 2), truth, 1e-6);
}

TEST(DegreeMomentEstimator, ZerothMomentIsOne) {
  Rng rng(5);
  const Graph g = cycle_graph(5);
  EXPECT_DOUBLE_EQ(estimate_degree_moment(g, full_edge_pass(g), 0), 1.0);
  EXPECT_DOUBLE_EQ(estimate_degree_moment(g, {}, 0), 0.0);
}

TEST(DegreePower, BitEqualToStdPow) {
  // Below 2^53 the running product is exact; at and past it the helper
  // hands over to std::pow. Either way the bits must be pow's.
  for (const double deg : {0.0, 1.0, 2.0, 3.0, 7.0, 1000.0, 2000.0,
                           94906265.0, 94906267.0, 67108863.0}) {
    for (unsigned e = 0; e <= 8; ++e) {
      EXPECT_EQ(degree_power(deg, e), std::pow(deg, static_cast<double>(e)))
          << deg << "^" << e;
    }
  }
}

TEST(DegreeMomentEstimator, StarPastTwoToThe53IsBitEqualToPowFold) {
  // The hub of a 2000-leaf star has 2000^5 > 2^53, so moment 6 crosses
  // into degree_power's std::pow fallback; moments 1..5 stay exact.
  const Graph g = star_graph(2001);
  const auto edges = full_edge_pass(g);
  constexpr unsigned kMaxMoment = 6;
  GraphMomentsSink sink(g, kMaxMoment);
  StreamEventBlock block(64);
  for (const Edge& e : edges) {
    if (block.room() == 0) {
      sink.ingest_block(block);
      block.clear();
    }
    block.push_edge(e.u, e.v, g.degree(e.v));
  }
  sink.ingest_block(block);
  for (unsigned k = 1; k <= kMaxMoment; ++k) {
    // Reference: the same fold with std::pow for every power.
    double numerator = 0.0;
    double s = 0.0;
    for (const Edge& e : edges) {
      const double deg = static_cast<double>(g.degree(e.v));
      numerator += std::pow(deg, static_cast<double>(k) - 1.0);
      s += 1.0 / deg;
    }
    const double reference = numerator / s;
    EXPECT_EQ(sink.degree_moment(k), reference) << "moment " << k;
    EXPECT_EQ(estimate_degree_moment(g, edges, k), reference)
        << "moment " << k;
  }
}

TEST(VolumeEstimator, ExactOnFullPassGivenTrueN) {
  Rng rng(6);
  const Graph g = barabasi_albert(300, 3, rng);
  const double est = estimate_volume(
      g, full_edge_pass(g), static_cast<double>(g.num_vertices()));
  EXPECT_NEAR(est, static_cast<double>(g.volume()), 1e-6);
  EXPECT_THROW((void)estimate_volume(g, full_edge_pass(g), 0.0),
               std::invalid_argument);
}

TEST(VolumeEstimator, FrontierSamplingEstimatesVolume) {
  Rng rng(7);
  const Graph g = barabasi_albert(500, 3, rng);
  const FrontierSampler fs(g, {.dimension = 20, .steps = 200000});
  const double est = estimate_volume(
      g, fs.run(rng).edges, static_cast<double>(g.num_vertices()));
  EXPECT_NEAR(est, static_cast<double>(g.volume()),
              0.05 * static_cast<double>(g.volume()));
}

}  // namespace
}  // namespace frontier
