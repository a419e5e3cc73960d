// Streaming motif estimands — triangle census, local/global clustering,
// and the connected 3-/4-vertex motif frequencies — fed by the same
// degree-biased edge stream as the sinks in stream/sinks.hpp.
//
// Under any stationary edge sampler (FS, SRW, RWJ after burn-in) a
// sampled edge event is a uniform ordered edge slot (u, v) of the 2|E|
// slots of the symmetric graph, so for any per-slot functional h,
// (1/B) Σ h(u_i, v_i) → (1/2|E|) Σ_slots h. Each sink accumulates exact
// integer sums of such functionals built from the codegree
// f(u,v) = |N(u) ∩ N(v)| (computed by sorted-adjacency merge against the
// full graph, Section 4.2.4 style); scaling by vol(G)/B turns them into
// motif-count estimates. Fed a full enumeration of all 2|E| slots, the
// estimates equal the exact analysis/motifs.hpp counts *exactly* — the
// accumulators are integers and the final divisions are exact — which is
// what tests/test_motif_sinks.cpp asserts.
//
// Bit-identity discipline matches sinks.hpp: ingest_block's state depends
// only on the row sequence, never on the block size; state snapshots
// round-trip through save_state/load_state; and results are invariant to
// FS_BLOCK and FS_THREADS (enforced by ctest and the CI fingerprint gate).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "stream/sinks.hpp"

namespace frontier {

/// Streaming triangle census from sampled edges: Σ f(u,v) (= 6·triangles
/// over a full slot enumeration) and Σ (deg(v) - 1) (= 2·wedges).
class TriangleSink final : public EstimatorSink {
 public:
  explicit TriangleSink(const Graph& g);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// T̂ = vol · (Σf / B) / 6 — exact count for volume = 2|E| fed all slots.
  [[nodiscard]] double triangle_count(double volume) const noexcept;
  /// Triangle density T̂ / C(n, 3).
  [[nodiscard]] double triangle_density(double num_vertices,
                                        double volume) const;
  /// Transitivity ratio 3T/W = Σf / Σ(deg(v)-1); 0 before any wedge.
  [[nodiscard]] double transitivity() const noexcept;
  [[nodiscard]] std::uint64_t edges_consumed() const noexcept { return n_; }

 private:
  const Graph* graph_;
  std::uint64_t shared_sum_ = 0;  // Σ f(u, v)
  std::uint64_t wedge_sum_ = 0;   // Σ (deg(v) - 1)
  std::uint64_t n_ = 0;
};

/// Streaming local + global clustering. The global part is Corollary
/// 4.2's Ĉ (estimators/clustering.hpp; estimate_global_clustering folds
/// through this sink), gated on deg(u) >= 2. The local part buckets
/// integer codegree sums by deg(u), giving the mean local clustering c̄(k)
/// per degree class — on a full slot enumeration bit-identical to
/// exact_local_clustering_by_degree.
class ClusteringSink final : public EstimatorSink {
 public:
  explicit ClusteringSink(const Graph& g);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// Ĉ (what estimate_global_clustering returns).
  [[nodiscard]] double global_clustering() const noexcept;
  /// c̄(k) per degree class k >= 2; 0 where no sample landed.
  [[nodiscard]] std::vector<double> local_clustering() const;
  [[nodiscard]] std::uint64_t edges_consumed() const noexcept { return n_; }

 private:
  const Graph* graph_;
  double s_ = 0.0;    // Σ 1/deg(u) over deg(u) >= 2
  double num_ = 0.0;  // Σ f / (2 C(deg(u), 2))
  std::uint64_t n_ = 0;
  std::vector<std::uint64_t> count_;  // samples per deg(u) class
  std::vector<std::uint64_t> fsum_;   // Σ f per deg(u) class
};

/// Induced connected 3-/4-vertex motif frequency estimates, scaled to
/// counts. Field names mirror analysis/motifs.hpp's MotifCounts.
struct MotifEstimate {
  double wedge = 0.0;
  double triangle = 0.0;
  double path4 = 0.0;
  double claw = 0.0;
  double cycle4 = 0.0;
  double paw = 0.0;
  double diamond = 0.0;
  double clique4 = 0.0;
};

/// Streaming connected 3-/4-vertex motif census. Per edge slot (u, v) it
/// accumulates seven integer functionals of the codegree structure
/// around the edge (see motif_sinks.cpp for the slot identities); the
/// inclusion–exclusion to induced counts happens once, in estimate().
/// The C4 term walks N(u)'s codegrees with v, so one edge row costs
/// O(deg(u) · avg_deg) — the heaviest sink in the pipeline by design.
class MotifSink final : public EstimatorSink {
 public:
  explicit MotifSink(const Graph& g);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// Induced motif-count estimates at the given graph volume (2|E|).
  /// Fed all 2|E| slots with volume = 2|E|, every field equals the exact
  /// MotifCounts value exactly (integer sums, exact divisions).
  [[nodiscard]] MotifEstimate estimate(double volume) const noexcept;
  [[nodiscard]] std::uint64_t edges_consumed() const noexcept { return n_; }

 private:
  void fold(VertexId u, VertexId v, std::uint32_t deg_v);

  const Graph* graph_;
  std::uint64_t n_ = 0;
  std::uint64_t shared_ = 0;    // Σ f                  = 6·T
  std::uint64_t wedge_ = 0;     // Σ (dv-1)             = 2·wedges
  std::uint64_t claw2_ = 0;     // Σ C(dv-1, 2)         = 3·claws_n
  std::uint64_t path4_ = 0;     // Σ (du-1)(dv-1) - f   = 2·P4_n
  std::uint64_t pawx_ = 0;      // Σ f(du+dv-4)         = 4·paws_n
  std::uint64_t diamond2_ = 0;  // Σ C(f, 2)            = 2·diamonds_n
  std::uint64_t cycle8_ = 0;    // Σ_x∈N(u)\v (f(x,v)-1) = 8·C4_n
  std::uint64_t clique12_ = 0;  // Σ adjacent pairs in N(u)∩N(v) = 12·K4
  std::vector<VertexId> scratch_;  // common-neighbour buffer, not state
};

}  // namespace frontier
