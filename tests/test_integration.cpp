// End-to-end integration tests: the paper's qualitative claims reproduced
// at test scale (seconds, not minutes). These are the smoke versions of the
// full benchmark suite in bench/.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "estimators/assortativity.hpp"
#include "estimators/degree_distribution.hpp"
#include "estimators/density.hpp"
#include "experiments/datasets.hpp"
#include "experiments/replication_runner.hpp"
#include "graph/components.hpp"
#include "graph/metrics.hpp"
#include "sampling/budget.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/random_edge.hpp"
#include "sampling/random_vertex.hpp"
#include "sampling/single_rw.hpp"
#include "stats/accumulators.hpp"
#include "stats/error_metrics.hpp"

namespace frontier {
namespace {

// Shared fixture: a scaled-down G_AB (the paper's pathological
// loosely-connected instance) and a common sampling budget.
class GabExperiment : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gab_ = new Dataset(make_gab(1500, 99));
  }
  static void TearDownTestSuite() {
    delete gab_;
    gab_ = nullptr;
  }
  static const Graph& graph() { return gab_->graph; }

  static Dataset* gab_;
};

Dataset* GabExperiment::gab_ = nullptr;

double mean_density_error(
    const Graph& g, double theta_true,
    const std::function<std::vector<Edge>(Rng&)>& run_sampler,
    std::size_t runs) {
  const auto pred = [&g](VertexId v) { return g.degree(v) == 10; };
  (void)pred;
  const ReplicationRunner runner(runs, 4242);
  ScalarErrorAccumulator result = runner.map_reduce(
      ScalarErrorAccumulator(theta_true),
      [&](std::size_t, Rng& rng) {
        ScalarErrorAccumulator acc(theta_true);
        const auto edges = run_sampler(rng);
        acc.add_run(estimate_vertex_label_density(
            g, edges, [&g](VertexId v) { return g.degree(v) == 10; }));
        return acc;
      },
      [](ScalarErrorAccumulator& dst, ScalarErrorAccumulator&& src) {
        dst.merge(src);
      });
  return result.nmse();
}

TEST_F(GabExperiment, FsBeatsIndependentWalkersOnDegreeDensity) {
  // Fig. 9/10 claim: on G_AB with uniform starts, FS estimates θ_10 with
  // far lower error than SingleRW and MultipleRW under the same budget.
  const Graph& g = graph();
  const double budget = static_cast<double>(g.num_vertices()) / 10.0;
  const std::size_t m = 100;
  const double theta_true = exact_label_density(
      g, [&g](VertexId v) { return g.degree(v) == 10; });
  ASSERT_GT(theta_true, 0.0);

  const std::size_t runs = 60;
  const FrontierSampler fs(
      g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});
  const double fs_err = mean_density_error(
      g, theta_true, [&](Rng& rng) { return fs.run(rng).edges; }, runs);

  const SingleRandomWalk srw(
      g, {.steps = static_cast<std::uint64_t>(budget) - 1});
  const double srw_err = mean_density_error(
      g, theta_true, [&](Rng& rng) { return srw.run(rng).edges; }, runs);

  const MultipleRandomWalks mrw(
      g, {.num_walkers = m,
          .steps_per_walker = multiple_rw_steps_per_walker(budget, m, 1.0)});
  const double mrw_err = mean_density_error(
      g, theta_true, [&](Rng& rng) { return mrw.run(rng).edges; }, runs);

  EXPECT_LT(fs_err, srw_err);
  EXPECT_LT(fs_err, mrw_err);
}

TEST_F(GabExperiment, SingleWalkerCannotSeeAssortativityAcrossTheBridge) {
  // Table 2's G_AB row: SingleRW gets trapped in one half (each half has
  // r ~ 0) while FS estimates the global r > 0 reliably. Uses the ER-halves
  // G_AB variant, where the global r is solidly positive at bench scale
  // (see make_gab_er's doc comment).
  const Dataset gab_er = make_gab_er(1500, 99);
  const Graph& g = gab_er.graph;
  const double r_true = exact_assortativity(g);
  ASSERT_GT(r_true, 0.1);

  const double budget = static_cast<double>(g.num_vertices()) / 10.0;
  const std::size_t m = 100;
  const std::size_t runs = 40;

  const auto merge = [](ScalarErrorAccumulator& d,
                         ScalarErrorAccumulator&& s) { d.merge(s); };
  ScalarErrorAccumulator fs_acc = ReplicationRunner(runs, 777).map_reduce(
      ScalarErrorAccumulator(r_true),
      [&](std::size_t, Rng& rng) {
        ScalarErrorAccumulator acc(r_true);
        const FrontierSampler fs(
            g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});
        acc.add_run(estimate_assortativity(g, fs.run(rng).edges));
        return acc;
      },
      merge);

  ScalarErrorAccumulator srw_acc = ReplicationRunner(runs, 778).map_reduce(
      ScalarErrorAccumulator(r_true),
      [&](std::size_t, Rng& rng) {
        ScalarErrorAccumulator acc(r_true);
        const SingleRandomWalk srw(
            g, {.steps = static_cast<std::uint64_t>(budget) - 1});
        acc.add_run(estimate_assortativity(g, srw.run(rng).edges));
        return acc;
      },
      merge);

  EXPECT_LT(fs_acc.nmse(), srw_acc.nmse());
  // SingleRW's estimate collapses toward 0 (the within-half value), i.e.
  // bias close to 100%.
  EXPECT_GT(std::abs(srw_acc.relative_bias()), 0.5);
  EXPECT_LT(std::abs(fs_acc.relative_bias()), 0.3);
}

TEST(VertexVsEdgeSampling, EdgeSamplingWinsOnTheTail) {
  // Section 3: random edge sampling estimates above-average degrees more
  // accurately; random vertex sampling wins below the average.
  ExperimentConfig cfg;
  cfg.scale_multiplier = 0.2;
  cfg.seed = 5;
  const Dataset ds = synthetic_youtube(cfg);
  const Graph& g = ds.graph;
  const auto theta = degree_distribution(g, DegreeKind::kSymmetric);
  const double budget = static_cast<double>(g.num_vertices()) / 20.0;

  // Pick a tail degree (~4x mean) and a low degree below the mean, both
  // with enough probability mass that the NMSE is finite and stable.
  const auto mean_deg = static_cast<std::uint32_t>(g.average_degree());
  std::uint32_t tail_deg = std::min<std::uint32_t>(
      4 * mean_deg, static_cast<std::uint32_t>(theta.size() - 1));
  while (tail_deg > mean_deg && theta[tail_deg] * budget < 0.5) {
    --tail_deg;
  }
  std::uint32_t low_deg = mean_deg / 2;
  while (low_deg > 0 && theta[low_deg] * budget < 0.5) {
    ++low_deg;  // climb toward the mean until there is mass
    if (low_deg >= mean_deg) break;
  }
  ASSERT_GT(tail_deg, mean_deg);
  ASSERT_LT(low_deg, mean_deg);
  ASSERT_GT(theta[tail_deg], 0.0);
  ASSERT_GT(theta[low_deg], 0.0);

  const std::size_t runs = 400;
  struct Pair {
    ScalarErrorAccumulator tail;
    ScalarErrorAccumulator low;
  };
  const auto run_method =
      [&](const std::function<std::vector<double>(Rng&)>& estimate) {
        const auto make_pair = [&] {
          return Pair{ScalarErrorAccumulator(theta[tail_deg]),
                      ScalarErrorAccumulator(theta[low_deg])};
        };
        return ReplicationRunner(runs, 999).map_reduce(
            make_pair(),
            [&](std::size_t, Rng& rng) {
              Pair acc = make_pair();
              const auto est = estimate(rng);
              acc.tail.add_run(tail_deg < est.size() ? est[tail_deg] : 0.0);
              acc.low.add_run(low_deg < est.size() ? est[low_deg] : 0.0);
              return acc;
            },
            [](Pair& d, Pair&& s) {
              d.tail.merge(s.tail);
              d.low.merge(s.low);
            });
      };

  const RandomVertexSampler rv(g, {.budget = budget});
  const Pair rv_err = run_method([&](Rng& rng) {
    return estimate_degree_distribution_uniform(g, rv.run(rng).vertices,
                                                DegreeKind::kSymmetric);
  });
  const RandomEdgeSampler re(g, {.budget = budget, .edge_cost = 1.0});
  const Pair re_err = run_method([&](Rng& rng) {
    return estimate_degree_distribution(g, re.run(rng).edges,
                                        DegreeKind::kSymmetric);
  });

  EXPECT_LT(re_err.tail.nmse(), rv_err.tail.nmse())
      << "edge sampling must win above the mean degree";
  EXPECT_LT(rv_err.low.nmse(), re_err.low.nmse())
      << "vertex sampling must win below the mean degree";
}

TEST(FlickrSurrogate, FsBeatsMultipleRwOnGroupDensities) {
  // Section 6.5 smoke test at reduced scale: mean NMSE of the top-30 group
  // densities, FS vs MultipleRW (m = 100), budget |V|/50.
  ExperimentConfig cfg;
  cfg.scale_multiplier = 0.2;
  cfg.seed = 31;
  const Dataset ds = synthetic_flickr(cfg);
  const Graph& g = ds.graph;
  const std::size_t top = 30;
  const auto groups_of = [&ds](VertexId v) { return ds.groups(v); };

  std::vector<double> truth(top, 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t grp : ds.groups(v)) {
      if (grp < top) truth[grp] += 1.0;
    }
  }
  for (double& t : truth) t /= static_cast<double>(g.num_vertices());

  // Budget must keep MultipleRW walkers alive: steps/walker = B/m - 1.
  const double budget = static_cast<double>(g.num_vertices()) / 10.0;
  const std::size_t m = 20;
  const std::size_t runs = 100;

  const auto mean_nmse =
      [&](const std::function<std::vector<Edge>(Rng&)>& sample) {
        MseAccumulator acc = ReplicationRunner(runs, 555).map_reduce(
            MseAccumulator(truth),
            [&](std::size_t, Rng& rng) {
              MseAccumulator out(truth);
              out.add_run(estimate_group_densities(g, sample(rng), groups_of,
                                                   top));
              return out;
            },
            [](MseAccumulator& d, MseAccumulator&& s) { d.merge(s); });
        const auto curve = acc.normalized_rmse();
        return mean_positive(curve);
      };

  const FrontierSampler fs(
      g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});
  const MultipleRandomWalks mrw(
      g, {.num_walkers = m,
          .steps_per_walker = multiple_rw_steps_per_walker(budget, m, 1.0)});
  const double fs_err = mean_nmse([&](Rng& rng) { return fs.run(rng).edges; });
  const double mrw_err =
      mean_nmse([&](Rng& rng) { return mrw.run(rng).edges; });
  EXPECT_LT(fs_err, mrw_err);
}

}  // namespace
}  // namespace frontier
