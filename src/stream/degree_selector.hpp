// Walker selection for Frontier Sampling (Algorithm 1, line 4): draw slot
// i with probability w_i / Σ w over exact integer weights (the walkers'
// degrees), with O(1) weight updates after each step.
//
// Two levels: per-slot uint32 weights and per-block uint64 sums over
// blocks of 2^shift slots. A draw scans the block sums, then the slots of
// one block: at most m / 2^shift + 2^shift compares. The block width is
// derived from m alone: 16 while m < 1024, about √m from there (a fixed
// width of 16 lost to a Fenwick tree at m in the thousands).
//
// sample() makes one draw, target = uniform01(rng) * total, and returns
// the first slot whose exact prefix sum exceeds target. Every prefix sum
// is an integer below 2^53, hence exact as a double, so the comparison
// `prefix > target` is exact; it equals `prefix > floor(target)`, which
// the scan evaluates in integers.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "random/rng.hpp"

namespace frontier {

class DegreeSelector {
 public:
  DegreeSelector() = default;

  /// n slots, all weights zero.
  explicit DegreeSelector(std::size_t n)
      : weights_(n, 0),
        shift_(n < 1024 ? 4 : static_cast<unsigned>(std::bit_width(n)) / 2),
        block_sums_((n + (std::size_t{1} << shift_) - 1) >> shift_, 0) {}

  /// Sets the weight of slot i. O(1).
  void set(std::size_t i, std::uint32_t w) {
    if (i >= weights_.size()) throw std::out_of_range("DegreeSelector::set");
    // Unsigned wrap-around makes w - old a signed delta modulo 2^64.
    const std::uint64_t delta = std::uint64_t{w} - weights_[i];
    weights_[i] = w;
    block_sums_[i >> shift_] += delta;
    total_ += delta;
  }

  [[nodiscard]] std::uint32_t get(std::size_t i) const {
    if (i >= weights_.size()) throw std::out_of_range("DegreeSelector::get");
    return weights_[i];
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }

  /// The first slot whose exact prefix sum exceeds `target` (>= 0). A
  /// target >= total() gives the last slot with positive weight (slot 0
  /// if there is none). Requires size() > 0. Pure; exposed for tests.
  [[nodiscard]] std::size_t find(double target) const noexcept {
    if (!(target < static_cast<double>(total_))) return last_positive();
    auto t = static_cast<std::uint64_t>(target);  // floor: prefix > t
    std::size_t b = 0;
    while (block_sums_[b] <= t) t -= block_sums_[b++];
    std::size_t i = b << shift_;
    while (weights_[i] <= t) t -= weights_[i++];
    return i;
  }

  /// Draws slot i with probability get(i) / total(). Throws
  /// std::logic_error when total() is zero.
  [[nodiscard]] std::size_t sample(Rng& rng) const {
    if (total_ == 0) {
      throw std::logic_error("DegreeSelector::sample: total weight is zero");
    }
    return find(uniform01(rng) * static_cast<double>(total_));
  }

 private:
  // Rare path: the draw rounded up to total().
  [[nodiscard]] std::size_t last_positive() const noexcept {
    std::size_t i = weights_.size() - 1;
    while (i > 0 && weights_[i] == 0) --i;
    return i;
  }

  std::vector<std::uint32_t> weights_;
  unsigned shift_ = 4;  // log2 of the block width
  std::vector<std::uint64_t> block_sums_;
  std::uint64_t total_ = 0;
};

}  // namespace frontier
