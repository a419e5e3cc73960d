#include "sampling/walk.hpp"

#include <stdexcept>
#include <string>

namespace frontier {

namespace {

std::vector<double> degree_weights(const Graph& g) {
  std::vector<double> w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    w[v] = static_cast<double>(g.degree(v));
  }
  return w;
}

}  // namespace

StartSampler::StartSampler(const Graph& g, StartMode mode)
    : graph_(&g), mode_(mode) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("StartSampler: empty graph");
  }
  if (g.volume() == 0) {
    throw std::invalid_argument("StartSampler: graph has no edges");
  }
  if (mode == StartMode::kDegreeProportional) {
    const auto w = degree_weights(g);
    degree_table_ = AliasTable{std::span<const double>(w)};
  }
}

VertexId StartSampler::sample(Rng& rng) const {
  if (mode_ == StartMode::kDegreeProportional) {
    return static_cast<VertexId>(degree_table_.sample(rng));
  }
  // Uniform, rejecting isolated vertices (the paper assumes none exist;
  // rejection keeps the sampler total on graphs that do have them).
  for (;;) {
    const auto v =
        static_cast<VertexId>(uniform_index(rng, graph_->num_vertices()));
    if (graph_->degree(v) > 0) return v;
  }
}

void check_fixed_start(const Graph& g, std::optional<VertexId> start,
                       const char* who) {
  if (!start) return;
  if (*start >= g.num_vertices()) {
    throw std::out_of_range(std::string(who) + ": fixed_start out of range");
  }
  if (g.degree(*start) == 0) {
    throw std::invalid_argument(std::string(who) +
                                ": fixed_start is isolated");
  }
}

}  // namespace frontier
