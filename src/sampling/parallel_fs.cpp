#include "sampling/parallel_fs.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.hpp"

namespace frontier {

namespace {

struct TimedEdge {
  double time;
  Edge edge;
};

}  // namespace

ParallelFrontierSampler::ParallelFrontierSampler(const Graph& g,
                                                 Config config)
    : graph_(&g), config_(config), start_sampler_(g, config.start) {
  if (config_.dimension == 0) {
    throw std::invalid_argument("ParallelFrontierSampler: m >= 1");
  }
  if (config_.time_horizon <= 0.0) {
    throw std::invalid_argument("ParallelFrontierSampler: horizon > 0");
  }
}

SampleRecord ParallelFrontierSampler::run(std::uint64_t seed) const {
  const Graph& g = *graph_;
  const std::size_t m = config_.dimension;
  const std::size_t workers =
      std::min(resolve_threads(config_.threads), m);

  // Starts are drawn from a single stream so the sample is independent of
  // the thread count.
  Rng start_rng = Rng(seed).split_stream(~std::uint64_t{0});
  std::vector<VertexId> starts(m);
  for (auto& v : starts) v = start_sampler_.sample(start_rng);

  // Each walker owns an RNG stream keyed by its index — again independent
  // of sharding. Threads process contiguous walker ranges.
  std::vector<std::vector<TimedEdge>> shard_edges(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  const Rng base(seed);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      auto& local = shard_edges[w];
      for (std::size_t walker = w; walker < m; walker += workers) {
        Rng rng = base.split_stream(walker);
        VertexId v = starts[walker];
        double now = exponential(rng, static_cast<double>(g.degree(v)));
        while (now <= config_.time_horizon) {
          const VertexId next = step_uniform_neighbor(g, v, rng);
          local.push_back(TimedEdge{now, Edge{v, next}});
          v = next;
          now += exponential(rng, static_cast<double>(g.degree(v)));
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  // Merge by timestamp (ties broken by edge content for determinism).
  std::vector<TimedEdge> all;
  std::size_t total = 0;
  for (const auto& shard : shard_edges) total += shard.size();
  all.reserve(total);
  for (auto& shard : shard_edges) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  std::sort(all.begin(), all.end(), [](const TimedEdge& a, const TimedEdge& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.edge.u != b.edge.u) return a.edge.u < b.edge.u;
    return a.edge.v < b.edge.v;
  });

  SampleRecord rec;
  rec.starts = std::move(starts);
  rec.edges.reserve(all.size());
  for (const TimedEdge& te : all) rec.edges.push_back(te.edge);
  rec.cost = static_cast<double>(rec.edges.size()) +
             static_cast<double>(m);
  return rec;
}

}  // namespace frontier
