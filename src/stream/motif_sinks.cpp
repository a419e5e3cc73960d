#include "stream/motif_sinks.hpp"

#include "analysis/motifs.hpp"
#include "graph/intersect.hpp"
#include "stream/serialize.hpp"

namespace frontier {

namespace {

using streamio::read_pod;
using streamio::read_vector;
using streamio::write_pod;
using streamio::write_vector;

constexpr std::uint8_t kHasEdge = StreamEventBlock::kHasEdge;

}  // namespace

// ------------------------------------------------------------ TriangleSink

TriangleSink::TriangleSink(const Graph& g)
    : EstimatorSink(g, kReadsCodegree), graph_(&g) {}

void TriangleSink::fold_rows(const BlockRows& rows, std::size_t begin,
                             std::size_t end) {
  const std::uint8_t* flags = rows.flags;
  const std::uint32_t* deg = rows.deg_v;
  const std::uint32_t* f = rows.codegree;
  for (std::size_t i = begin; i < end; ++i) {
    if (!(flags[i] & kHasEdge)) continue;
    shared_sum_ += f[i];
    wedge_sum_ += deg[i] - 1;
    ++n_;
  }
}

std::string_view TriangleSink::name() const noexcept { return "triangles"; }

double TriangleSink::triangle_count(double volume) const noexcept {
  if (n_ == 0) return 0.0;
  const double scale = volume / static_cast<double>(n_);
  return static_cast<double>(shared_sum_) * scale / 6.0;
}

double TriangleSink::triangle_density(double num_vertices,
                                      double volume) const {
  if (num_vertices < 3.0) return 0.0;
  const double triples =
      num_vertices * (num_vertices - 1.0) * (num_vertices - 2.0) / 6.0;
  return triangle_count(volume) / triples;
}

double TriangleSink::transitivity() const noexcept {
  // Σf / Σ(deg(v)-1) → 6T / 2W = 3T/W, the global transitivity ratio.
  if (wedge_sum_ == 0) return 0.0;
  return static_cast<double>(shared_sum_) / static_cast<double>(wedge_sum_);
}

void TriangleSink::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, shared_sum_);
  write_pod<std::uint64_t>(os, wedge_sum_);
  write_pod<std::uint64_t>(os, n_);
}

void TriangleSink::load_state(std::istream& is) {
  shared_sum_ = read_pod<std::uint64_t>(is);
  wedge_sum_ = read_pod<std::uint64_t>(is);
  n_ = read_pod<std::uint64_t>(is);
}

// ---------------------------------------------------------- ClusteringSink

ClusteringSink::ClusteringSink(const Graph& g)
    : EstimatorSink(g, kReadsCodegree), graph_(&g) {}

void ClusteringSink::fold_rows(const BlockRows& rows, std::size_t begin,
                               std::size_t end) {
  const std::uint8_t* flags = rows.flags;
  const VertexId* u = rows.u;
  const std::uint32_t* codegree = rows.codegree;
  const Graph& g = *graph_;
  for (std::size_t i = begin; i < end; ++i) {
    if (!(flags[i] & kHasEdge)) continue;
    ++n_;
    const std::uint32_t d = g.degree(u[i]);
    if (d < 2) continue;
    // Ĉ (Corollary 4.2, with the normalization carried through
    // explicitly): for a uniform edge sample (u, v),
    //   E[ f(u,v) / (2 C(deg(u),2)) ] = (1/|E|) Σ_u Σ_{v∈N(u)} f(u,v)/(2 C)
    //                                 = (1/|E|) Σ_u ∆(u)/C(deg(u),2)
    //                                 = (1/|E|) Σ_u c(u),
    // because Σ_{v∈N(u)} f(u,v) = 2∆(u) (each triangle at u is seen by both
    // of its edges at u). Dividing by S = (1/B) Σ 1/deg(u_i) restricted to
    // deg(u_i) >= 2, which converges to |V*|/|E| by Theorem 4.1, yields C.
    // (The paper's displayed Ĉ carries an extra 1/deg(u_i) and no 1/2; as
    // written it converges to (2/|V*|) Σ c(u)/deg(u), not to C — we use the
    // corrected weights, which agree exactly on a full pass over E.)
    const double deg = static_cast<double>(d);
    s_ += 1.0 / deg;
    const std::uint32_t f = codegree[i];
    const double pairs = deg * (deg - 1.0) / 2.0;
    num_ += static_cast<double>(f) / (2.0 * pairs);
    if (d >= count_.size()) {
      count_.resize(d + 1, 0);
      fsum_.resize(d + 1, 0);
    }
    count_[d] += 1;
    fsum_[d] += f;
  }
}

std::string_view ClusteringSink::name() const noexcept { return "clustering"; }

double ClusteringSink::global_clustering() const noexcept {
  return s_ == 0.0 ? 0.0 : num_ / s_;
}

std::vector<double> ClusteringSink::local_clustering() const {
  std::vector<double> curve(count_.size(), 0.0);
  for (std::size_t k = 2; k < curve.size(); ++k) {
    if (count_[k] == 0) continue;
    // Mean of f/(k-1) over the class: on a full slot enumeration the
    // class holds k samples per degree-k vertex and Σf = Σ 2∆(v), so the
    // quotient divides the same two exact integers as
    // exact_local_clustering_by_degree — hence bit-identical to it.
    const double denom =
        static_cast<double>(count_[k]) * (static_cast<double>(k) - 1.0);
    curve[k] = static_cast<double>(fsum_[k]) / denom;
  }
  return curve;
}

void ClusteringSink::save_state(std::ostream& os) const {
  write_pod<double>(os, s_);
  write_pod<double>(os, num_);
  write_pod<std::uint64_t>(os, n_);
  write_vector(os, count_);
  write_vector(os, fsum_);
}

void ClusteringSink::load_state(std::istream& is) {
  s_ = read_pod<double>(is);
  num_ = read_pod<double>(is);
  n_ = read_pod<std::uint64_t>(is);
  count_ = read_vector<std::uint64_t>(is);
  fsum_ = read_vector<std::uint64_t>(is);
  // fold_rows grows both columns together; unequal lengths would make
  // it index past the shorter one.
  if (count_.size() != fsum_.size()) {
    throw IoError("stream checkpoint: corrupt clustering state");
  }
}

// --------------------------------------------------------------- MotifSink

MotifSink::MotifSink(const Graph& g) : graph_(&g) {}

void MotifSink::fold(VertexId u, VertexId v, std::uint32_t deg_v) {
  const Graph& g = *graph_;
  ++n_;
  common_neighbors(g, u, v, scratch_);
  const std::int64_t f = static_cast<std::int64_t>(scratch_.size());
  const std::int64_t du = g.degree(u);
  const std::int64_t dv = deg_v;
  shared_ += static_cast<std::uint64_t>(f);
  wedge_ += static_cast<std::uint64_t>(dv - 1);
  claw2_ += static_cast<std::uint64_t>((dv - 1) * (dv - 2) / 2);
  path4_ += static_cast<std::uint64_t>((du - 1) * (dv - 1) - f);
  pawx_ += static_cast<std::uint64_t>(f * (du + dv - 4));
  diamond2_ += static_cast<std::uint64_t>(f * (f - 1) / 2);
  // K4 slot term: adjacent pairs inside the common neighborhood.
  std::uint64_t adjacent_pairs = 0;
  for (std::size_t i = 0; i < scratch_.size(); ++i) {
    for (std::size_t j = i + 1; j < scratch_.size(); ++j) {
      if (g.has_edge(scratch_[i], scratch_[j])) ++adjacent_pairs;
    }
  }
  clique12_ += adjacent_pairs;
  // C4 slot term: rectangles u–x–y–v–u through the edge, i.e. for every
  // other neighbor x of u, the codegree of {x, v} minus the slot's own u.
  // N(v) is marked once for the row and every N(x) probed against it.
  std::uint64_t cycles = 0;
  const MarkedSet nv(g.num_vertices(), g.neighbors(v));
  for (VertexId x : g.neighbors(u)) {
    if (x == v) continue;
    cycles += nv.count_in(g.neighbors(x)) - 1;  // u itself is always common
  }
  cycle8_ += cycles;
}

void MotifSink::fold_rows(const BlockRows& rows, std::size_t begin,
                          std::size_t end) {
  const std::uint8_t* flags = rows.flags;
  const VertexId* u = rows.u;
  const VertexId* v = rows.v;
  const std::uint32_t* deg = rows.deg_v;
  for (std::size_t i = begin; i < end; ++i) {
    if (!(flags[i] & kHasEdge)) continue;
    fold(u[i], v[i], deg[i]);
  }
}

std::string_view MotifSink::name() const noexcept { return "motif_census"; }

MotifEstimate MotifSink::estimate(double volume) const noexcept {
  MotifEstimate est;
  if (n_ == 0) return est;
  const double scale = volume / static_cast<double>(n_);
  // Non-induced totals: each slot sum divided by its multiplicity.
  const double tri = static_cast<double>(shared_) * scale / 6.0;
  const double wedges = static_cast<double>(wedge_) * scale / 2.0;
  const double claw_n = static_cast<double>(claw2_) * scale / 3.0;
  const double p4_n = static_cast<double>(path4_) * scale / 2.0;
  const double paw_n = static_cast<double>(pawx_) * scale / 4.0;
  const double diamond_n = static_cast<double>(diamond2_) * scale / 2.0;
  const double c4_n = static_cast<double>(cycle8_) * scale / 8.0;
  const double k4 = static_cast<double>(clique12_) * scale / 12.0;
  // Inclusion–exclusion to induced counts, same coefficients as
  // exact_motif_counts.
  est.triangle = tri;
  est.wedge = wedges - 3.0 * tri;
  est.clique4 = k4;
  est.diamond = diamond_n - 6.0 * k4;
  est.cycle4 = c4_n - diamond_n + 3.0 * k4;
  est.paw = paw_n - 4.0 * est.diamond - 12.0 * k4;
  est.claw = claw_n - est.paw - 2.0 * est.diamond - 4.0 * k4;
  est.path4 =
      p4_n - 4.0 * est.cycle4 - 2.0 * est.paw - 6.0 * est.diamond - 12.0 * k4;
  return est;
}

void MotifSink::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, n_);
  write_pod<std::uint64_t>(os, shared_);
  write_pod<std::uint64_t>(os, wedge_);
  write_pod<std::uint64_t>(os, claw2_);
  write_pod<std::uint64_t>(os, path4_);
  write_pod<std::uint64_t>(os, pawx_);
  write_pod<std::uint64_t>(os, diamond2_);
  write_pod<std::uint64_t>(os, cycle8_);
  write_pod<std::uint64_t>(os, clique12_);
}

void MotifSink::load_state(std::istream& is) {
  n_ = read_pod<std::uint64_t>(is);
  shared_ = read_pod<std::uint64_t>(is);
  wedge_ = read_pod<std::uint64_t>(is);
  claw2_ = read_pod<std::uint64_t>(is);
  path4_ = read_pod<std::uint64_t>(is);
  pawx_ = read_pod<std::uint64_t>(is);
  diamond2_ = read_pod<std::uint64_t>(is);
  cycle8_ = read_pod<std::uint64_t>(is);
  clique12_ = read_pod<std::uint64_t>(is);
}

}  // namespace frontier
