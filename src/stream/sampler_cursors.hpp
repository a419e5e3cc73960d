// Concrete SamplerCursors for the five walk methods: Algorithm 1 (FS)
// and the SingleRW, MultipleRW, RWJ and MH-RW baselines.
//
// Each cursor is the one definition of its method. It owns the method's
// Config, the one check of it (validate), and all of the stepping. The
// batch samplers in sampling/ are WalkSampler<Cursor> aliases
// (stream/cursor.hpp) that construct a cursor, drain it and copy the RNG
// back, so cursor and batch results are byte-identical by construction.
// Cursors own their RNG by value and serialize their dynamic state for
// checkpoint/resume (stream/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sampling/budget.hpp"
#include "sampling/walk.hpp"
#include "stream/cursor.hpp"
#include "stream/degree_selector.hpp"

namespace frontier {

/// Algorithm 1, one step per next(): select a walker ∝ degree, advance it
/// across a uniform edge, emit that edge.
class FrontierCursor final : public SamplerCursor {
 public:
  struct Config {
    std::size_t dimension = 10;  ///< m, the number of dependent walkers
    std::uint64_t steps = 0;     ///< total steps n (B - m*c)
    double jump_cost = 1.0;      ///< c, charged once per walker at init
    StartMode start = StartMode::kUniform;
  };

  /// The one check of a Config: throws std::invalid_argument if m = 0.
  static void validate(const Graph& g, const Config& config);
  [[nodiscard]] static StartMode start_mode(const Config& config) noexcept {
    return config.start;
  }
  [[nodiscard]] static RecordBounds record_bounds(
      const Config& config) noexcept {
    return {.edges = config.steps};
  }

  /// Draws the m walker starts from `config.start`.
  FrontierCursor(const Graph& g, Config config, Rng rng);

  /// Same, but draws the starts from a caller-owned StartSampler (must
  /// match config.start), so repeated runs reuse one alias table instead
  /// of rebuilding it per cursor. Only used during construction — the
  /// sampler need not outlive the cursor.
  FrontierCursor(const Graph& g, Config config, Rng rng,
                 const StartSampler& start_sampler);

  /// Starts from a caller-provided frontier, so experiments can share
  /// starting vertices between FS and MultipleRW (Figures 6 and 9).
  /// |frontier| must equal config.dimension and every start must have
  /// positive degree.
  FrontierCursor(const Graph& g, Config config, std::vector<VertexId> frontier,
                 Rng rng);

  bool next(StreamEvent& ev) override;
  [[nodiscard]] bool done() const noexcept override {
    return step_ == config_.steps;
  }
  [[nodiscard]] double cost() const noexcept override;
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kFrontier;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;
  [[nodiscard]] std::size_t active_walkers() const noexcept override {
    return frontier_.size();
  }

  /// Current walker positions (the frontier L of Algorithm 1).
  [[nodiscard]] const std::vector<VertexId>& frontier() const noexcept {
    return frontier_;
  }

 private:
  std::size_t append_batch(StreamEventBlock& block,
                           std::size_t max_steps) override;
  void init_selection();

  Config config_;
  std::vector<VertexId> frontier_;
  DegreeSelector selector_;  // walker degrees, for line 4
  std::uint64_t step_ = 0;
};

/// Single random walk with optional burn-in and laziness. Burn-in queries
/// are emitted as empty events (budget spent, nothing recorded), exactly
/// matching the batch accounting.
class SingleRwCursor final : public SamplerCursor {
 public:
  struct Config {
    std::uint64_t steps = 0;           ///< B walk steps
    StartMode start = StartMode::kUniform;
    std::optional<VertexId> fixed_start = std::nullopt;  ///< overrides `start` if set
    /// Burn-in (Section 4.3): `burn_in` additional initial walk queries are
    /// paid for and executed but their samples discarded — the classic
    /// MCMC remedy for a non-stationary start.
    std::uint64_t burn_in = 0;
    /// Laziness: probability that a budgeted query stays put instead of
    /// stepping (a lazy walk relaxes the non-bipartite requirement of
    /// Section 4). Stays consume budget but record no edge (a stay is not
    /// an element of E). 0 = classic walk.
    double laziness = 0.0;
  };

  /// The one check of a Config: throws std::out_of_range for a
  /// fixed_start outside V, std::invalid_argument for an isolated
  /// fixed_start or a laziness outside [0, 1).
  static void validate(const Graph& g, const Config& config);
  [[nodiscard]] static StartMode start_mode(const Config& config) noexcept {
    return config.start;
  }
  [[nodiscard]] static RecordBounds record_bounds(
      const Config& config) noexcept {
    return {.edges = config.steps};
  }

  SingleRwCursor(const Graph& g, Config config, Rng rng);

  /// Draws the start from a caller-owned StartSampler (construction only).
  SingleRwCursor(const Graph& g, Config config, Rng rng,
                 const StartSampler& start_sampler);

  bool next(StreamEvent& ev) override;
  [[nodiscard]] bool done() const noexcept override {
    return step_ == config_.steps && burn_done_ == config_.burn_in;
  }
  [[nodiscard]] double cost() const noexcept override;
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kSingleRw;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  [[nodiscard]] VertexId position() const noexcept { return u_; }

 private:
  std::size_t append_batch(StreamEventBlock& block,
                           std::size_t max_steps) override;
  Config config_;
  VertexId u_ = kInvalidVertex;
  std::uint64_t burn_done_ = 0;
  std::uint64_t step_ = 0;
};

/// m independent walkers run back to back in walker order; each walker's
/// start is drawn lazily right before its first step, preserving the batch
/// RNG interleaving (start_1, steps_1, start_2, steps_2, ...).
class MultipleRwCursor final : public SamplerCursor {
 public:
  struct Config {
    std::size_t num_walkers = 10;        ///< m
    std::uint64_t steps_per_walker = 0;  ///< floor(B/m - c)
    double jump_cost = 1.0;              ///< c, charged once per walker
    StartMode start = StartMode::kUniform;
  };

  /// The one check of a Config: throws std::invalid_argument if m = 0.
  static void validate(const Graph& g, const Config& config);
  [[nodiscard]] static StartMode start_mode(const Config& config) noexcept {
    return config.start;
  }
  [[nodiscard]] static RecordBounds record_bounds(
      const Config& config) noexcept {
    return {.edges = config.num_walkers * config.steps_per_walker};
  }

  MultipleRwCursor(const Graph& g, Config config, Rng rng);

  /// Draws walker starts from a caller-owned StartSampler, which must
  /// outlive the cursor (starts are drawn lazily throughout the run).
  MultipleRwCursor(const Graph& g, Config config, Rng rng,
                   const StartSampler& start_sampler);

  bool next(StreamEvent& ev) override;
  [[nodiscard]] bool done() const noexcept override {
    return walker_ == config_.num_walkers;
  }
  [[nodiscard]] double cost() const noexcept override;
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kMultipleRw;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;
  /// Walkers that still have steps to take (walkers run back to back, so
  /// at most one is mid-walk; the rest are waiting to start).
  [[nodiscard]] std::size_t active_walkers() const noexcept override {
    return config_.num_walkers - walker_;
  }

 private:
  std::size_t append_batch(StreamEventBlock& block,
                           std::size_t max_steps) override;
  Config config_;
  std::optional<StartSampler> owned_start_;  // engaged unless caller-owned
  const StartSampler* start_sampler_;
  VertexId u_ = kInvalidVertex;
  std::size_t walker_ = 0;     // walkers fully finished
  std::uint64_t step_ = 0;     // steps taken by the current walker
};

/// Random walk with jumps under a budget: jumps cost c/hit_ratio (paid in
/// geometric retry streaks), walk steps cost 1. Jump landings emit a
/// vertex; walk steps emit an edge and a vertex.
class RwjCursor final : public SamplerCursor {
 public:
  struct Config {
    double budget = 0.0;          ///< B; steps cost 1, jumps cost c/hit
    double jump_probability = 0.15;
    CostModel cost{};             ///< jump cost model
  };

  /// The one check of a Config: throws std::invalid_argument unless
  /// jump_probability is in [0, 1], hit_ratio in (0, 1], jump_cost > 0 and
  /// the budget finite — the conditions under which a run terminates.
  static void validate(const Graph& g, const Config& config);
  /// Jumps land uniformly on V, whatever the config.
  [[nodiscard]] static StartMode start_mode(const Config& /*config*/) noexcept {
    return StartMode::kUniform;
  }
  /// Walk steps cost 1 each, so the budget bounds the edge count, and
  /// every step or jump landing records at most one vertex. The budget is
  /// clamped to [0, 2^32] before the cast: a negative budget (legal, empty
  /// run) or a huge one would be UB to cast, and the drain grows past the
  /// pre-size if it must.
  [[nodiscard]] static RecordBounds record_bounds(const Config& config) noexcept;

  RwjCursor(const Graph& g, Config config, Rng rng);

  /// Jumps through a caller-owned StartSampler (kUniform), which must
  /// outlive the cursor (jump landings are drawn throughout the run).
  RwjCursor(const Graph& g, Config config, Rng rng,
            const StartSampler& start_sampler);

  bool next(StreamEvent& ev) override;
  [[nodiscard]] bool done() const noexcept override { return done_; }
  [[nodiscard]] double cost() const noexcept override { return cost_; }
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kRandomWalkWithJumps;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  std::size_t append_batch(StreamEventBlock& block,
                           std::size_t max_steps) override;
  [[nodiscard]] bool pay_jump();
  void init();

  Config config_;
  std::optional<StartSampler> owned_start_;  // engaged unless caller-owned
  const StartSampler* start_sampler_;
  VertexId v_ = kInvalidVertex;
  std::optional<VertexId> pending_vertex_;  // start visit, emitted first
  double cost_ = 0.0;
  bool done_ = false;
};

/// Metropolis–Hastings walk: every step emits the (possibly unchanged)
/// current vertex; accepted proposals additionally emit the transition
/// edge. The start vertex is emitted by the first next() call, matching
/// the batch record's steps+1 vertex entries.
class MetropolisCursor final : public SamplerCursor {
 public:
  struct Config {
    std::uint64_t steps = 0;
    StartMode start = StartMode::kUniform;
    std::optional<VertexId> fixed_start = std::nullopt;
  };

  /// The one check of a Config: throws std::out_of_range for a
  /// fixed_start outside V and std::invalid_argument for an isolated one.
  static void validate(const Graph& g, const Config& config);
  [[nodiscard]] static StartMode start_mode(const Config& config) noexcept {
    return config.start;
  }
  /// Every proposal may be accepted, so `steps` bounds the edge count;
  /// the visit sequence holds the start plus one vertex per step.
  [[nodiscard]] static RecordBounds record_bounds(
      const Config& config) noexcept {
    return {.edges = config.steps, .vertices = config.steps + 1};
  }

  MetropolisCursor(const Graph& g, Config config, Rng rng);

  /// Draws the start from a caller-owned StartSampler (construction only).
  MetropolisCursor(const Graph& g, Config config, Rng rng,
                   const StartSampler& start_sampler);

  bool next(StreamEvent& ev) override;
  [[nodiscard]] bool done() const noexcept override {
    return step_ == config_.steps && !pending_vertex_;
  }
  [[nodiscard]] double cost() const noexcept override;
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kMetropolis;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  [[nodiscard]] VertexId position() const noexcept { return v_; }

 private:
  std::size_t append_batch(StreamEventBlock& block,
                           std::size_t max_steps) override;
  Config config_;
  VertexId v_ = kInvalidVertex;
  std::optional<VertexId> pending_vertex_;
  std::uint64_t step_ = 0;
};

}  // namespace frontier
