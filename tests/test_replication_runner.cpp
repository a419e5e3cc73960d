// ReplicationRunner: the acceptance property is that every result —
// including floating-point roundoff — is bit-identical for any thread
// count, because per-run results are materialized in run-index slots and
// reduced in run order. Verified here on raw RNG draws, on ordered folds,
// and end-to-end on FS / MultipleRW / Metropolis-Hastings replications.
#include "experiments/replication_runner.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/frontier.hpp"
#include "obs/metrics.hpp"

namespace frontier {
namespace {

TEST(ReplicationRunner, WorkersCappedAtRunCount) {
  EXPECT_EQ(ReplicationRunner(2, 1, 8).workers(), 2u);
  EXPECT_EQ(ReplicationRunner(100, 1, 3).workers(), 3u);
  EXPECT_GE(ReplicationRunner(100, 1, 0).workers(), 1u);
  // Zero runs still resolves a worker count (nothing is spawned).
  EXPECT_EQ(ReplicationRunner(0, 1, 8).workers(), 1u);
}

/// Gathers body's results through map_reduce, in the order fold sees them.
template <typename Body>
auto collect(const ReplicationRunner& runner, const Body& body) {
  using R = std::decay_t<decltype(body(std::size_t{}, std::declval<Rng&>()))>;
  return runner.map_reduce(
      std::vector<R>{}, body,
      [](std::vector<R>& acc, R&& x) { acc.push_back(std::move(x)); });
}

TEST(ReplicationRunner, MapReduceFoldsRunOrderResults) {
  // 600 runs span three reduce chunks.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ReplicationRunner runner(600, 99, threads);
    const auto results = collect(runner, [](std::size_t r, Rng& rng) {
      return std::pair<std::size_t, double>(r, uniform01(rng));
    });
    ASSERT_EQ(results.size(), 600u);
    // Same per-run substream derivation as a 1-thread runner.
    const Rng base(99);
    for (std::size_t r = 0; r < results.size(); ++r) {
      EXPECT_EQ(results[r].first, r);
      Rng expected = base.split_stream(r);
      EXPECT_EQ(results[r].second, uniform01(expected)) << "run " << r;
    }
  }
}

TEST(ReplicationRunner, MapReduceBitIdenticalAcrossThreadCounts) {
  // Non-associative floating-point fold: only an order-preserving
  // reduction gives the same bits for every thread count.
  const auto fold_with = [](std::size_t threads) {
    const ReplicationRunner runner(200, 7, threads);
    return runner.map_reduce(
        0.0,
        [](std::size_t, Rng& rng) { return uniform01(rng) * 1e-3 + 1.0; },
        [](double& acc, double&& x) { acc += x * acc * 1e-6 + x; });
  };
  const double t1 = fold_with(1);
  EXPECT_EQ(t1, fold_with(2));
  EXPECT_EQ(t1, fold_with(8));
}

TEST(ReplicationRunner, ZeroRunsReturnsInit) {
  const ReplicationRunner runner(0, 1, 4);
  bool ran = false;
  EXPECT_EQ(runner.map_reduce(
                42,
                [&ran](std::size_t, Rng&) {
                  ran = true;
                  return 1;
                },
                [](int& acc, int&& x) { acc += x; }),
            42);
  EXPECT_FALSE(ran);
}

TEST(ReplicationRunner, ExceptionsPropagate) {
  for (const std::size_t threads : {1u, 4u}) {
    const ReplicationRunner runner(64, 3, threads);
    EXPECT_THROW((void)runner.map_reduce(
                     0,
                     [](std::size_t r, Rng&) {
                       if (r == 13) throw std::runtime_error("boom");
                       return 0;
                     },
                     [](int&, int&&) {}),
                 std::runtime_error);
  }
}

TEST(ReplicationRunner, RunsEveryIndexOnceOnItsOwnStream) {
  // The body counts its own invocations: every run index exactly once,
  // each drawing from split_stream(run).
  const Rng base(7);
  for (const std::size_t threads : {1u, 4u, 6u}) {
    std::mutex mu;
    std::vector<int> visits(100, 0);
    const ReplicationRunner runner(100, 7, threads);
    const auto draws = collect(runner, [&](std::size_t r, Rng& rng) {
      const std::lock_guard<std::mutex> lock(mu);
      ++visits[r];
      return uniform01(rng);
    });
    ASSERT_EQ(draws.size(), 100u);
    for (std::size_t r = 0; r < visits.size(); ++r) {
      EXPECT_EQ(visits[r], 1) << "run " << r << ", threads " << threads;
      Rng expected = base.split_stream(r);
      EXPECT_EQ(draws[r], uniform01(expected)) << "run " << r;
    }
  }
}

/// Sets the process-wide telemetry switch, restoring it when destroyed.
class MetricsSwitch {
 public:
  explicit MetricsSwitch(bool on) { set_metrics_enabled(on); }
  ~MetricsSwitch() { set_metrics_enabled(was_); }
  MetricsSwitch(const MetricsSwitch&) = delete;
  MetricsSwitch& operator=(const MetricsSwitch&) = delete;

 private:
  bool was_ = metrics_enabled();
};

/// The named entry of a snapshot's counters/gauges/histograms, or a
/// default value when the metric is not registered yet.
template <typename V>
V lookup(const std::vector<std::pair<std::string, V>>& entries,
         std::string_view name) {
  for (const auto& [n, v] : entries) {
    if (n == name) return v;
  }
  return V{};
}

TEST(ReplicationRunner, PoolTelemetryCountsEveryRunAndChunk) {
  Rng graph_rng(9);
  const Graph g = barabasi_albert(200, 3, graph_rng);
  const FrontierSampler fs(g, {.dimension = 4, .steps = 40});
  // 600 runs are three reduce chunks: one dispatch each. The body drains
  // FS through its worker slot's arena.
  const auto fold_with = [&](std::size_t threads) {
    return ReplicationRunner(600, 11, threads)
        .map_reduce(
            0.0,
            [&](std::size_t, Rng& rng, SampleArena& arena) {
              double x = 0.0;
              for (const Edge& e : fs.run_into(arena, rng).edges) {
                x = x * 0.5 + e.u + 1e-3 * e.v;
              }
              return x;
            },
            [](double& acc, double&& x) { acc += x * acc * 1e-9 + x; });
  };
  const MetricsSwitch off(false);
  const double bare = fold_with(4);

  const MetricsSwitch on(true);
  const MetricsRegistry& reg = MetricsRegistry::global();
  for (const std::size_t threads : {1u, 4u}) {
    const MetricsSnapshot before = reg.snapshot();
    EXPECT_EQ(fold_with(threads), bare) << threads << " threads";
    const MetricsSnapshot after = reg.snapshot();
    const auto grew = [&](std::string_view name) {
      return lookup(after.counters, name) - lookup(before.counters, name);
    };
    const auto observed = [&](std::string_view name) {
      return lookup(after.histograms, name).count -
             lookup(before.histograms, name).count;
    };
    EXPECT_EQ(grew("replication.runs_total"), 600u) << threads << " threads";
    EXPECT_EQ(observed("replication.run_ns"), 600u) << threads << " threads";
    EXPECT_EQ(observed("replication.dispatch_ns"), 3u)
        << threads << " threads";
    EXPECT_EQ(lookup(after.gauges, "replication.queue_depth"), 0.0)
        << threads << " threads";
  }
}

/// Replicated sampler edges for a given thread count.
template <typename Sampler>
std::vector<std::vector<Edge>> replicate_edges(const Sampler& sampler,
                                               std::size_t threads) {
  const ReplicationRunner runner(12, 20100907, threads);
  return collect(runner,
                 [&](std::size_t, Rng& rng) { return sampler.run(rng).edges; });
}

template <typename Sampler>
void expect_bit_identical(const Sampler& sampler) {
  const auto t1 = replicate_edges(sampler, 1);
  const auto t2 = replicate_edges(sampler, 2);
  const auto t8 = replicate_edges(sampler, 8);
  ASSERT_EQ(t1.size(), 12u);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(ReplicationRunner, FrontierSamplingBitIdentical) {
  Rng graph_rng(5);
  const Graph g = barabasi_albert(400, 3, graph_rng);
  const FrontierSampler fs(g, {.dimension = 16, .steps = 500});
  expect_bit_identical(fs);
}

TEST(ReplicationRunner, MultipleRwBitIdentical) {
  Rng graph_rng(6);
  const Graph g = barabasi_albert(400, 3, graph_rng);
  const MultipleRandomWalks mrw(g, {.num_walkers = 16,
                                    .steps_per_walker = 40});
  expect_bit_identical(mrw);
}

TEST(ReplicationRunner, MetropolisHastingsBitIdentical) {
  Rng graph_rng(7);
  const Graph g = barabasi_albert(400, 3, graph_rng);
  const MetropolisHastingsWalk mh(g, {.steps = 600});
  expect_bit_identical(mh);
}

TEST(ReplicationRunner, AccumulatorMergeBitIdenticalAcrossThreadCounts) {
  // Per-run accumulators merged in run order: MseAccumulator curves come
  // out bitwise equal for any thread count.
  Rng graph_rng(8);
  const Graph g = barabasi_albert(300, 3, graph_rng);
  const FrontierSampler fs(g, {.dimension = 8, .steps = 300});
  const auto truth = degree_distribution(g, DegreeKind::kSymmetric);
  const auto run_with = [&](std::size_t threads) {
    return ReplicationRunner(10, 42, threads)
        .map_reduce(
            MseAccumulator(truth),
            [&](std::size_t, Rng& rng) {
              MseAccumulator acc(truth);
              acc.add_run(estimate_degree_distribution(
                  g, fs.run(rng).edges, DegreeKind::kSymmetric));
              return acc;
            },
            [](MseAccumulator& dst, MseAccumulator&& src) {
              dst.merge(src);
            });
  };
  const auto c1 = run_with(1).normalized_rmse();
  const auto c2 = run_with(2).normalized_rmse();
  const auto c8 = run_with(8).normalized_rmse();
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c1, c8);
}

}  // namespace
}  // namespace frontier
