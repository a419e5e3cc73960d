#include "stream/sinks.hpp"

#include <algorithm>
#include <stdexcept>

#include "estimators/graph_moments.hpp"
#include "stream/serialize.hpp"

namespace frontier {

namespace {

using streamio::read_pod;
using streamio::read_vector;
using streamio::write_pod;
using streamio::write_vector;

constexpr std::uint8_t kHasEdge = StreamEventBlock::kHasEdge;
constexpr std::uint8_t kHasVertex = StreamEventBlock::kHasVertex;

// Writes `count` rows, row i by push(block, i), into blocks of up to
// default_block_capacity() rows and ingests each as it fills. The block
// is allocated once per thread and reused by every call on it; clear()
// before each fill also resets its derived-column memos, so a reuse on
// another graph, or at the address of a freed one, recomputes the
// columns. The rows carry no pick, so a sink that reads one locates it.
template <typename Push>
void ingest_rows(EstimatorSink& sink, std::size_t count, Push push) {
  if (count == 0) return;
  thread_local StreamEventBlock block(default_block_capacity());
  for (std::size_t i = 0; i < count;) {
    block.clear();
    const std::size_t end = std::min(count, i + block.room());
    for (; i < end; ++i) push(block, i);
    sink.ingest_block(block);
  }
}

}  // namespace

void ingest_sample(EstimatorSink& sink, const Graph& g,
                   std::span<const Edge> edges) {
  const std::size_t n = g.num_vertices();
  ingest_rows(sink, edges.size(), [&](StreamEventBlock& block, std::size_t i) {
    const Edge e = edges[i];
    if (e.u >= n || e.v >= n) {
      throw std::out_of_range("ingest_sample: edge endpoint outside the graph");
    }
    block.push_edge(e.u, e.v, g.degree(e.v));
  });
}

void ingest_sample(EstimatorSink& sink, const Graph& g,
                   std::span<const VertexId> vertices) {
  const std::size_t n = g.num_vertices();
  ingest_rows(sink, vertices.size(),
              [&](StreamEventBlock& block, std::size_t i) {
                if (vertices[i] >= n) {
                  throw std::out_of_range(
                      "ingest_sample: vertex outside the graph");
                }
                block.push_vertex(vertices[i]);
              });
}

// ------------------------------------------------- DegreeDistributionSink

DegreeDistributionSink::DegreeDistributionSink(const Graph& g, DegreeKind kind)
    : graph_(&g), kind_(kind) {}

void DegreeDistributionSink::ingest_block(const StreamEventBlock& block) {
  const std::size_t sz = block.size();
  const std::uint8_t* flags = block.flags().data();
  const std::uint32_t* deg = block.deg_v().data();
  const VertexId* v = block.v().data();
  const bool symmetric = kind_ == DegreeKind::kSymmetric;
  double s = s_;
  std::uint64_t n = n_;
  for (std::size_t i = 0; i < sz; ++i) {
    if (!(flags[i] & kHasEdge)) continue;
    const double inv_deg = 1.0 / static_cast<double>(deg[i]);
    s += inv_deg;
    // A symmetric bucket is the weight degree itself: no graph lookup.
    const std::uint32_t d =
        symmetric ? deg[i] : degree_of(*graph_, v[i], kind_);
    if (d >= weighted_.size()) weighted_.resize(d + 1, 0.0);
    weighted_[d] += inv_deg;
    ++n;
  }
  s_ = s;
  n_ = n;
}

std::string_view DegreeDistributionSink::name() const noexcept {
  return "degree_distribution";
}

std::vector<double> DegreeDistributionSink::distribution() const {
  std::vector<double> theta = weighted_;
  if (s_ > 0.0) {
    for (double& w : theta) w /= s_;
  }
  return theta;
}

std::vector<double> DegreeDistributionSink::ccdf() const {
  return ccdf_from_pdf(distribution());
}

void DegreeDistributionSink::save_state(std::ostream& os) const {
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(kind_));
  write_vector(os, weighted_);
  write_pod<double>(os, s_);
  write_pod<std::uint64_t>(os, n_);
}

void DegreeDistributionSink::load_state(std::istream& is) {
  streamio::expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(kind_),
                                     "degree kind");
  weighted_ = read_vector<double>(is);
  s_ = read_pod<double>(is);
  n_ = read_pod<std::uint64_t>(is);
}

// ------------------------------------------------------- VertexDensitySink

VertexDensitySink::VertexDensitySink(const Graph& /*g*/,
                                     std::function<bool(VertexId)> pred)
    : pred_(std::move(pred)) {
  if (!pred_) {
    throw std::invalid_argument("VertexDensitySink: predicate required");
  }
}

void VertexDensitySink::ingest_block(const StreamEventBlock& block) {
  const std::size_t sz = block.size();
  const std::uint8_t* flags = block.flags().data();
  const std::uint32_t* deg = block.deg_v().data();
  const VertexId* v = block.v().data();
  for (std::size_t i = 0; i < sz; ++i) {
    if (!(flags[i] & kHasEdge)) continue;
    const double inv_deg = 1.0 / static_cast<double>(deg[i]);
    s_ += inv_deg;
    if (pred_(v[i])) weighted_hits_ += inv_deg;
    ++n_;
  }
}

std::string_view VertexDensitySink::name() const noexcept {
  return "vertex_density";
}

double VertexDensitySink::value() const noexcept {
  if (n_ == 0) return 0.0;
  return s_ == 0.0 ? 0.0 : weighted_hits_ / s_;
}

void VertexDensitySink::save_state(std::ostream& os) const {
  write_pod<double>(os, s_);
  write_pod<double>(os, weighted_hits_);
  write_pod<std::uint64_t>(os, n_);
}

void VertexDensitySink::load_state(std::istream& is) {
  s_ = read_pod<double>(is);
  weighted_hits_ = read_pod<double>(is);
  n_ = read_pod<std::uint64_t>(is);
}

// --------------------------------------------------------- EdgeDensitySink

EdgeDensitySink::EdgeDensitySink(std::function<bool(const Edge&)> labeled,
                                 std::function<bool(const Edge&)> has_label)
    : labeled_(std::move(labeled)), has_label_(std::move(has_label)) {
  if (!labeled_ || !has_label_) {
    throw std::invalid_argument("EdgeDensitySink: predicates required");
  }
}

void EdgeDensitySink::ingest_block(const StreamEventBlock& block) {
  const std::size_t sz = block.size();
  const std::uint8_t* flags = block.flags().data();
  const VertexId* u = block.u().data();
  const VertexId* v = block.v().data();
  for (std::size_t i = 0; i < sz; ++i) {
    if (!(flags[i] & kHasEdge)) continue;
    const Edge e{u[i], v[i]};
    if (!labeled_(e)) continue;
    ++b_star_;
    if (has_label_(e)) ++hits_;
  }
}

std::string_view EdgeDensitySink::name() const noexcept {
  return "edge_density";
}

double EdgeDensitySink::value() const noexcept {
  return b_star_ == 0
             ? 0.0
             : static_cast<double>(hits_) / static_cast<double>(b_star_);
}

void EdgeDensitySink::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, b_star_);
  write_pod<std::uint64_t>(os, hits_);
}

void EdgeDensitySink::load_state(std::istream& is) {
  b_star_ = read_pod<std::uint64_t>(is);
  hits_ = read_pod<std::uint64_t>(is);
}

// ------------------------------------------------------- AssortativitySink

AssortativitySink::AssortativitySink(const Graph& g) : graph_(&g) {}

void AssortativitySink::ingest_block(const StreamEventBlock& block) {
  const std::size_t sz = block.size();
  const std::uint8_t* flags = block.flags().data();
  const VertexId* u = block.u().data();
  const VertexId* v = block.v().data();
  const Graph& g = *graph_;
  const std::uint32_t* pick = block.pick(g).data();
  const EdgeIndex* offsets = g.offsets().data();
  const EdgeDir* dirs = g.direction_array().data();
  for (std::size_t i = 0; i < sz; ++i) {
    if (!(flags[i] & kHasEdge)) continue;
    if (pick[i] == Graph::kNotAdjacent) continue;  // not an edge of g
    // (u,v) is labeled iff it is in E_d: forward or both ways.
    const EdgeDir d = dirs[offsets[u[i]] + pick[i]];
    if (d != EdgeDir::kForward && d != EdgeDir::kBoth) continue;
    acc_.add(static_cast<double>(g.out_degree(u[i])),
             static_cast<double>(g.in_degree(v[i])));
  }
}

std::string_view AssortativitySink::name() const noexcept {
  return "assortativity";
}

void AssortativitySink::save_state(std::ostream& os) const {
  write_pod(os, acc_.state());
}

void AssortativitySink::load_state(std::istream& is) {
  acc_.restore(read_pod<AssortativityAccumulator::State>(is));
}

// -------------------------------------------------------- GraphMomentsSink

GraphMomentsSink::GraphMomentsSink(const Graph& /*g*/, unsigned max_moment)
    : pow_sums_(max_moment, 0.0) {
  if (max_moment == 0) {
    throw std::invalid_argument("GraphMomentsSink: max_moment >= 1");
  }
}

void GraphMomentsSink::ingest_block(const StreamEventBlock& block) {
  const std::size_t sz = block.size();
  const std::uint8_t* flags = block.flags().data();
  const std::uint32_t* deg_col = block.deg_v().data();
  const std::size_t moments = pow_sums_.size();
  for (std::size_t i = 0; i < sz; ++i) {
    if (!(flags[i] & kHasEdge)) continue;
    const double deg = static_cast<double>(deg_col[i]);
    s_ += 1.0 / deg;
    for (std::size_t k = 1; k <= moments; ++k) {
      pow_sums_[k - 1] += degree_power(deg, static_cast<unsigned>(k - 1));
    }
    ++n_;
    observed_.add(deg);
  }
}

std::string_view GraphMomentsSink::name() const noexcept {
  return "graph_moments";
}

double GraphMomentsSink::average_degree() const noexcept {
  if (n_ == 0) return 0.0;
  return s_ == 0.0 ? 0.0 : static_cast<double>(n_) / s_;
}

double GraphMomentsSink::degree_moment(unsigned k) const {
  if (k == 0) return n_ == 0 ? 0.0 : 1.0;  // E[deg^0] = 1
  if (k > pow_sums_.size()) {
    throw std::out_of_range("GraphMomentsSink: moment not tracked");
  }
  if (n_ == 0) return 0.0;
  // Stationary samples are degree-biased: E_sample[deg^(k-1)] =
  // Σ_v deg^k / vol, and S = E_sample[deg^-1] -> |V|/vol, so the ratio is
  // the k-th raw moment (1/|V|) Σ_v deg^k.
  return s_ == 0.0 ? 0.0 : pow_sums_[k - 1] / s_;
}

double GraphMomentsSink::volume(double num_vertices) const {
  if (num_vertices <= 0.0) {
    throw std::invalid_argument("GraphMomentsSink: num_vertices > 0");
  }
  return average_degree() * num_vertices;
}

void GraphMomentsSink::save_state(std::ostream& os) const {
  write_vector(os, pow_sums_);
  write_pod<double>(os, s_);
  write_pod<std::uint64_t>(os, n_);
  write_pod(os, observed_.state());
}

void GraphMomentsSink::load_state(std::istream& is) {
  const auto pow_sums = read_vector<double>(is);
  if (pow_sums.size() != pow_sums_.size()) {
    throw IoError("stream checkpoint: configuration mismatch: max_moment");
  }
  pow_sums_ = pow_sums;
  s_ = read_pod<double>(is);
  n_ = read_pod<std::uint64_t>(is);
  RunningStat fresh;
  fresh.restore(read_pod<RunningStat::State>(is));
  observed_ = fresh;
}

// ------------------------------------------------------- UniformDegreeSink

UniformDegreeSink::UniformDegreeSink(const Graph& g) : graph_(&g) {}

void UniformDegreeSink::ingest_block(const StreamEventBlock& block) {
  const std::size_t sz = block.size();
  const std::uint8_t* flags = block.flags().data();
  const VertexId* vertex = block.vertex().data();
  const Graph& g = *graph_;
  for (std::size_t i = 0; i < sz; ++i) {
    if (!(flags[i] & kHasVertex)) continue;
    deg_sum_ += static_cast<double>(g.degree(vertex[i]));
    ++n_;
  }
}

std::string_view UniformDegreeSink::name() const noexcept {
  return "uniform_degree";
}

double UniformDegreeSink::value() const noexcept {
  return n_ == 0 ? 0.0 : deg_sum_ / static_cast<double>(n_);
}

void UniformDegreeSink::save_state(std::ostream& os) const {
  write_pod<double>(os, deg_sum_);
  write_pod<std::uint64_t>(os, n_);
}

void UniformDegreeSink::load_state(std::istream& is) {
  deg_sum_ = read_pod<double>(is);
  n_ = read_pod<std::uint64_t>(is);
}

}  // namespace frontier
