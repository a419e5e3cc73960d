// Online estimator sinks: fold StreamEventBlocks incrementally so a crawl
// at any budget B uses O(max_degree + buckets) memory instead of O(B).
//
// Each sink's ingest_block is its estimand's only fold: StreamEngine feeds
// it a cursor's blocks, and the batch estimators in estimators/ are
// adapters that fold a materialized sample through ingest_sample() below.
// The state depends only on the row sequence, so both paths agree bit for
// bit at every block capacity (tests/test_stream_sinks.cpp). Sinks
// serialize their numeric state for checkpoint/resume; closures (label
// predicates) are not stored — the caller re-binds them on reconstruction.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "estimators/assortativity.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "stats/accumulators.hpp"
#include "stream/block.hpp"

namespace frontier {

/// Incremental estimator fed one StreamEventBlock at a time.
class EstimatorSink {
 public:
  virtual ~EstimatorSink() = default;

  /// Folds every row of `block` in order, skipping rows without the
  /// observation the estimand needs (edge or vertex flag). The state
  /// depends only on the row sequence, never on how it was cut into
  /// blocks. Contract: the block's deg_v column must be the symmetric
  /// degree of v in this sink's graph, which holds for every block
  /// produced by a cursor over that graph.
  virtual void ingest_block(const StreamEventBlock& block) = 0;

  /// Stable identifier, stored in checkpoints and verified on load.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Serializes / restores the accumulated numeric state.
  virtual void save_state(std::ostream& os) const = 0;
  virtual void load_state(std::istream& is) = 0;
};

/// Streaming eq.-7 degree distribution (and CCDF): a histogram of
/// 1/deg(v_i) weights keyed by the `kind`-degree of v_i, folded per edge.
class DegreeDistributionSink final : public EstimatorSink {
 public:
  DegreeDistributionSink(const Graph& g, DegreeKind kind);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// θ̂ (what estimate_degree_distribution returns).
  [[nodiscard]] std::vector<double> distribution() const;
  /// γ̂, the CCDF of θ̂ (what estimate_degree_ccdf returns).
  [[nodiscard]] std::vector<double> ccdf() const;
  [[nodiscard]] std::uint64_t edges_consumed() const noexcept { return n_; }

 private:
  const Graph* graph_;
  DegreeKind kind_;
  std::vector<double> weighted_;  // Σ 1/deg(v_i) per degree bucket
  double s_ = 0.0;                // Σ 1/deg(v_i)
  std::uint64_t n_ = 0;
};

/// Streaming eq. 7: vertex label density from edge samples, reweighted by
/// 1/deg. The predicate is evaluated once per edge as it arrives; the
/// weights come from the block's deg_v column (degrees in `g`).
class VertexDensitySink final : public EstimatorSink {
 public:
  VertexDensitySink(const Graph& g, std::function<bool(VertexId)> pred);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// θ̂_l (what estimate_vertex_label_density returns).
  [[nodiscard]] double value() const noexcept;

 private:
  std::function<bool(VertexId)> pred_;
  double s_ = 0.0;
  double weighted_hits_ = 0.0;
  std::uint64_t n_ = 0;
};

/// Streaming eq. 5: edge label density over the labeled subsequence.
class EdgeDensitySink final : public EstimatorSink {
 public:
  EdgeDensitySink(std::function<bool(const Edge&)> labeled,
                  std::function<bool(const Edge&)> has_label);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// p̂_l (what estimate_edge_label_density returns).
  [[nodiscard]] double value() const noexcept;

 private:
  std::function<bool(const Edge&)> labeled_;
  std::function<bool(const Edge&)> has_label_;
  std::uint64_t b_star_ = 0;
  std::uint64_t hits_ = 0;
};

/// Streaming assortativity r̂ (Section 4.2.2), reusing the incremental
/// AssortativityAccumulator from estimators/.
class AssortativitySink final : public EstimatorSink {
 public:
  explicit AssortativitySink(const Graph& g);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// r̂ (what estimate_assortativity returns).
  [[nodiscard]] double value() const noexcept { return acc_.value(); }
  [[nodiscard]] std::uint64_t labeled_count() const noexcept {
    return acc_.count();
  }

 private:
  const Graph* graph_;
  AssortativityAccumulator acc_;
};

/// Streaming graph moments: the S-normalization of eq. 7 folded per edge.
/// Provides average degree (1/S), higher degree moments, and volume; also
/// keeps a Welford RunningStat of the observed degrees as a dispersion
/// diagnostic for monitoring long crawls.
class GraphMomentsSink final : public EstimatorSink {
 public:
  /// Tracks raw degree moments E[deg^k] for k in [1, max_moment]. The
  /// degrees come from the block's deg_v column (degrees in `g`).
  explicit GraphMomentsSink(const Graph& g, unsigned max_moment = 3);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// d̄ = 1/S (what estimate_average_degree returns).
  [[nodiscard]] double average_degree() const noexcept;
  /// E[deg^k] for k <= max_moment (what estimate_degree_moment returns).
  [[nodiscard]] double degree_moment(unsigned k) const;
  /// vol ≈ |V| / S (what estimate_volume returns).
  [[nodiscard]] double volume(double num_vertices) const;
  [[nodiscard]] std::uint64_t edges_consumed() const noexcept { return n_; }
  /// Welford statistics of the observed (degree-biased) target degrees.
  [[nodiscard]] const RunningStat& observed_degrees() const noexcept {
    return observed_;
  }

 private:
  std::vector<double> pow_sums_;  // Σ deg^(k-1) for k = 1..max_moment
  double s_ = 0.0;                // Σ 1/deg
  std::uint64_t n_ = 0;
  RunningStat observed_;
};

/// Streaming mean degree from *uniform vertex* samples (MH-RW visits):
/// the plain empirical average, no reweighting.
class UniformDegreeSink final : public EstimatorSink {
 public:
  explicit UniformDegreeSink(const Graph& g);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// Mean degree (what estimate_average_degree_uniform returns).
  [[nodiscard]] double value() const noexcept;
  [[nodiscard]] std::uint64_t vertices_consumed() const noexcept { return n_; }

 private:
  const Graph* graph_;
  double deg_sum_ = 0.0;
  std::uint64_t n_ = 0;
};

/// Owning collection of sinks, in checkpoint order.
using SinkSet = std::vector<std::unique_ptr<EstimatorSink>>;

/// Folds a materialized edge sample through `sink`, in order: cuts it into
/// blocks of default_block_capacity() rows (the last one shorter), each
/// row an edge carrying deg(v) in `g` as the ingest_block contract
/// requires. The rows go through one block per thread, reused across
/// calls, so a call allocates nothing after the thread's first. Throws
/// std::out_of_range at the first edge with an endpoint >= g.num_vertices()
/// (the blocks before it are already folded).
void ingest_sample(EstimatorSink& sink, const Graph& g,
                   std::span<const Edge> edges);

/// Same for a uniform vertex sample of `g`: one vertex row per element.
void ingest_sample(EstimatorSink& sink, const Graph& g,
                   std::span<const VertexId> vertices);

}  // namespace frontier
