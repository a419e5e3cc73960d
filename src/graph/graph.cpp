#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

namespace frontier {

bool Graph::has_edge(VertexId u, VertexId v) const noexcept {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::uint32_t Graph::neighbor_index(VertexId u, VertexId v) const noexcept {
  if (u >= num_vertices() || v >= num_vertices()) return kNotAdjacent;
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kNotAdjacent;
  return static_cast<std::uint32_t>(it - nbrs.begin());
}

bool Graph::has_directed_edge(VertexId u, VertexId v) const noexcept {
  const std::uint32_t k = neighbor_index(u, v);
  if (k == kNotAdjacent) return false;
  const EdgeDir d = directions(u)[k];
  return d == EdgeDir::kForward || d == EdgeDir::kBoth;
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, degree(v));
  }
  return best;
}

Edge Graph::edge_at(EdgeIndex j) const noexcept {
  // Binary search for the source vertex owning slot j.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), j);
  const auto u = static_cast<VertexId>((it - offsets_.begin()) - 1);
  return Edge{u, neighbors_[j]};
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "Graph{|V|=" << num_vertices() << ", |E_d|=" << num_directed_edges()
     << ", |E|/2=" << num_undirected_edges()
     << ", avg_deg=" << average_degree() << ", max_deg=" << max_degree()
     << "}";
  return os.str();
}

}  // namespace frontier
