// Assortative-mixing coefficient estimator (Section 4.2.2).
//
// Sampled symmetric edges (u,v) that exist as directed edges in E_d carry
// the label (outdeg(u), indeg(v)); the estimator is the empirical Pearson
// correlation of these labels over the labeled subsequence — exactly the
// r̂ of Section 4.2.2 computed from the p̂_ij table, but accumulated as
// moment sums so no W_out x W_in matrix is materialized. Asymptotically
// unbiased by Theorem 4.1.
#pragma once

#include <span>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace frontier {

/// Incremental moment accumulator for (out-degree, in-degree) edge labels.
class AssortativityAccumulator {
 public:
  /// Plain-old-data snapshot of the moment sums, for checkpointing
  /// (stream/checkpoint.hpp serializes it verbatim).
  struct State {
    std::uint64_t n = 0;
    double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  };

  /// Adds one labeled edge with x = outdeg(u), y = indeg(v). Inline: the
  /// streaming sink calls it once per labeled row.
  void add(double x, double y) noexcept {
    ++n_;
    sx_ += x;
    sy_ += y;
    sxx_ += x * x;
    syy_ += y * y;
    sxy_ += x * y;
  }

  /// Number of labeled samples B* absorbed so far.
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

  /// Current r̂; 0 if fewer than 2 samples or a zero-variance marginal.
  [[nodiscard]] double value() const noexcept;

  [[nodiscard]] State state() const noexcept {
    return {n_, sx_, sy_, sxx_, syy_, sxy_};
  }
  void restore(const State& s) noexcept {
    n_ = s.n;
    sx_ = s.sx;
    sy_ = s.sy;
    sxx_ = s.sxx;
    syy_ = s.syy;
    sxy_ = s.sxy;
  }

 private:
  std::uint64_t n_ = 0;
  double sx_ = 0.0, sy_ = 0.0, sxx_ = 0.0, syy_ = 0.0, sxy_ = 0.0;
};

/// r̂ from a sequence of sampled symmetric edges: filters to edges present
/// in E_d (E* = E_d, the labeled subset) and correlates their labels.
[[nodiscard]] double estimate_assortativity(const Graph& g,
                                            std::span<const Edge> edges);

}  // namespace frontier
