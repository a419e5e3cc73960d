// ParallelFrontierSampler: distributed Frontier Sampling (Section 5.3,
// Theorem 5.5), the library's one implementation of it.
//
// FS can be fully distributed with zero coordination: run m independent
// walkers whose holding time at v is Exp(deg(v)). By uniformization, the
// union of their jump streams ordered by global time is a centralized FS
// process: at any instant the next walker to move is walker i with
// probability deg(v_i)/Σ_j deg(v_j). This class executes the walkers on
// `threads` OS threads — each thread owns a contiguous shard of walkers,
// each walker its own RNG stream, clocks are simulated independently and
// the shards' timestamped edges are merged afterwards. No locks, no
// messages, no shared state between shards while sampling.
//
// The stop rule is a time horizon, so the number of sampled edges is
// random (it concentrates around horizon · E[frontier degree sum]). A
// global step count would need a shared counter across walkers — the very
// coordination Theorem 5.5 removes.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "sampling/walk.hpp"

namespace frontier {

class ParallelFrontierSampler {
 public:
  struct Config {
    std::size_t dimension = 64;   ///< m walkers
    double time_horizon = 10.0;   ///< observe jumps in [0, horizon];
                                  ///< finite and > 0
    std::size_t threads = 0;      ///< 0 = hardware concurrency
    StartMode start = StartMode::kUniform;
  };

  ParallelFrontierSampler(const Graph& g, Config config);

  /// One run; edges are merged across shards in global-time order.
  /// Deterministic for a fixed `seed` regardless of the thread count.
  [[nodiscard]] SampleRecord run(std::uint64_t seed) const;

 private:
  const Graph* graph_;
  Config config_;
  StartSampler start_sampler_;
};

/// The horizon at which m walkers make about `jumps` jumps in total once
/// they are stationary. A walker's clock chain is stationary-uniform over
/// the vertices of its component, so on a connected graph it jumps at
/// rate vol(V)/|V|.
[[nodiscard]] double time_horizon_for_jumps(const Graph& g, std::size_t m,
                                            double jumps);

}  // namespace frontier
