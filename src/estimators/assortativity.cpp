#include "estimators/assortativity.hpp"

#include <cmath>

#include "stream/sinks.hpp"

namespace frontier {

double AssortativityAccumulator::value() const noexcept {
  if (n_ < 2) return 0.0;
  const double n = static_cast<double>(n_);
  const double cov = sxy_ / n - (sx_ / n) * (sy_ / n);
  const double vx = sxx_ / n - (sx_ / n) * (sx_ / n);
  const double vy = syy_ / n - (sy_ / n) * (sy_ / n);
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

double estimate_assortativity(const Graph& g, std::span<const Edge> edges) {
  AssortativitySink sink(g);
  ingest_sample(sink, g, edges);
  return sink.value();
}

}  // namespace frontier
