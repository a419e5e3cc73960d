#include "analysis/dense_chain.hpp"

#include <cmath>
#include <stdexcept>

namespace frontier {

DenseChain::DenseChain(std::size_t n) : n_(n), p_(n * n, 0.0) {}

void DenseChain::set(std::size_t from, std::size_t to, double p) {
  if (from >= n_ || to >= n_) throw std::out_of_range("DenseChain::set");
  p_[from * n_ + to] = p;
}

double DenseChain::get(std::size_t from, std::size_t to) const {
  if (from >= n_ || to >= n_) throw std::out_of_range("DenseChain::get");
  return p_[from * n_ + to];
}

bool DenseChain::is_stochastic(double tol) const noexcept {
  for (std::size_t i = 0; i < n_; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n_; ++j) {
      const double p = p_[i * n_ + j];
      if (p < -tol) return false;
      row += p;
    }
    if (std::abs(row - 1.0) > tol) return false;
  }
  return true;
}

std::vector<double> DenseChain::step(std::span<const double> dist) const {
  if (dist.size() != n_) throw std::invalid_argument("DenseChain::step size");
  std::vector<double> out(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const double di = dist[i];
    if (di == 0.0) continue;
    const double* row = p_.data() + i * n_;
    for (std::size_t j = 0; j < n_; ++j) out[j] += di * row[j];
  }
  return out;
}

std::vector<double> DenseChain::evolve(std::span<const double> dist,
                                       std::uint64_t steps) const {
  std::vector<double> cur(dist.begin(), dist.end());
  for (std::uint64_t t = 0; t < steps; ++t) cur = step(cur);
  return cur;
}

std::vector<double> DenseChain::stationary(double tol,
                                           std::uint64_t max_iters) const {
  std::vector<double> cur(n_, n_ > 0 ? 1.0 / static_cast<double>(n_) : 0.0);
  for (std::uint64_t it = 0; it < max_iters; ++it) {
    std::vector<double> next = step(cur);
    double l1 = 0.0;
    for (std::size_t i = 0; i < n_; ++i) l1 += std::abs(next[i] - cur[i]);
    cur = std::move(next);
    if (l1 < tol) return cur;
  }
  throw std::runtime_error("DenseChain::stationary: no convergence");
}

DenseChain random_walk_chain(const Graph& g) {
  DenseChain chain(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) {
      chain.set(u, u, 1.0);
      continue;
    }
    const double p = 1.0 / static_cast<double>(nbrs.size());
    for (VertexId v : nbrs) chain.set(u, v, chain.get(u, v) + p);
  }
  return chain;
}

double total_variation(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("total_variation: size mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return 0.5 * sum;
}

std::vector<double> rw_stationary_distribution(const Graph& g) {
  std::vector<double> pi(g.num_vertices(), 0.0);
  const double vol = static_cast<double>(g.volume());
  if (vol == 0.0) return pi;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    pi[v] = static_cast<double>(g.degree(v)) / vol;
  }
  return pi;
}

}  // namespace frontier
