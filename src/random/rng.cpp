#include "random/rng.hpp"

#include <cmath>

namespace frontier {

// uniform_index / bernoulli are defined inline in rng.hpp:
// they sit on the innermost walker-step path and must inline into the
// batched cursor loops. The draws below involve libm calls, so an
// out-of-line definition costs nothing.

double exponential(Rng& rng, double rate) noexcept {
  // Inverse CDF; 1 - U avoids log(0).
  return -std::log1p(-uniform01(rng)) / rate;
}

std::uint64_t geometric_failures(Rng& rng, double p) noexcept {
  if (p >= 1.0) return 0;
  // Inversion: floor(log(U) / log(1-p)).
  const double u = 1.0 - uniform01(rng);  // in (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

}  // namespace frontier
