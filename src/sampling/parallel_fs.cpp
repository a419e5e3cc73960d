#include "sampling/parallel_fs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
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
  // An infinite horizon never stops; a NaN one silently samples nothing.
  if (!std::isfinite(config_.time_horizon) || config_.time_horizon <= 0.0) {
    throw std::invalid_argument(
        "ParallelFrontierSampler: horizon must be finite and > 0");
  }
}

double time_horizon_for_jumps(const Graph& g, std::size_t m, double jumps) {
  return jumps * static_cast<double>(g.num_vertices()) /
         (static_cast<double>(m) * static_cast<double>(g.volume()));
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
  // of sharding. Workers process contiguous walker ranges.
  std::vector<std::vector<TimedEdge>> shard_edges(workers);
  const Rng base(seed);
  parallel_for_ranges(
      m, workers, [&](std::size_t w, std::size_t begin, std::size_t end) {
        auto& local = shard_edges[w];
        for (std::size_t walker = begin; walker < end; ++walker) {
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

  // Merge by timestamp, ties broken by edge content: the full key makes
  // the order independent of how walkers were sharded.
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
