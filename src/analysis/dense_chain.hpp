// Dense finite Markov chains — exact transient and stationary analysis for
// small graphs. Used to verify the paper's theorems numerically and by the
// Appendix-B convergence study (Table 4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace frontier {

/// Row-stochastic matrix with dense storage. Intended for chains of at most
/// a few thousand states (random walks on test graphs and small Cartesian
/// powers).
class DenseChain {
 public:
  DenseChain() = default;

  /// Zero matrix on n states; fill with set().
  explicit DenseChain(std::size_t n);

  [[nodiscard]] std::size_t num_states() const noexcept { return n_; }

  void set(std::size_t from, std::size_t to, double p);
  [[nodiscard]] double get(std::size_t from, std::size_t to) const;

  /// Verifies every row sums to 1 within tol.
  [[nodiscard]] bool is_stochastic(double tol = 1e-9) const noexcept;

  /// One step of distribution evolution: out = dist * P.
  [[nodiscard]] std::vector<double> step(
      std::span<const double> dist) const;

  /// t-step evolution.
  [[nodiscard]] std::vector<double> evolve(std::span<const double> dist,
                                           std::uint64_t steps) const;

  /// Stationary distribution via power iteration from uniform, to within
  /// l1 tolerance (throws std::runtime_error if not converged within
  /// max_iters — e.g. a periodic chain).
  [[nodiscard]] std::vector<double> stationary(double tol = 1e-12,
                                               std::uint64_t max_iters =
                                                   200000) const;

 private:
  std::size_t n_ = 0;
  std::vector<double> p_;  // row-major
};

/// Transition matrix of the simple random walk on the symmetric graph G:
/// P(u,v) = 1/deg(u) for each neighbor v. Vertices of degree 0 are absorbing
/// (self-loop) so the matrix stays stochastic.
[[nodiscard]] DenseChain random_walk_chain(const Graph& g);

/// Total variation distance between two distributions of equal length.
[[nodiscard]] double total_variation(std::span<const double> a,
                                     std::span<const double> b);

/// The degree-proportional stationary law deg(v)/vol(V) of the RW on G.
[[nodiscard]] std::vector<double> rw_stationary_distribution(const Graph& g);

}  // namespace frontier
