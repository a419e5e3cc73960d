#include "stream/sampler_cursors.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stream/serialize.hpp"

namespace frontier {

namespace {

using streamio::expect_pod;
using streamio::read_pod;
using streamio::read_vector;
using streamio::write_pod;
using streamio::write_vector;

void write_rng(std::ostream& os, const Rng& rng) {
  write_pod(os, rng.state());
}

void read_rng(std::istream& is, Rng& rng) {
  rng.set_state(read_pod<std::array<std::uint64_t, 4>>(is));
}

// A restored position is about to be dereferenced against the CSR arrays;
// a corrupt checkpoint must surface as IoError, not an out-of-bounds read.
void check_position(const Graph& g, VertexId v, const char* what) {
  if (v >= g.num_vertices() || g.degree(v) == 0) {
    throw IoError(std::string("stream checkpoint: corrupt position: ") + what);
  }
}

void write_optional_vertex(std::ostream& os,
                           const std::optional<VertexId>& v) {
  write_pod<std::uint8_t>(os, v.has_value() ? 1 : 0);
  write_pod<VertexId>(os, v.value_or(kInvalidVertex));
}

[[nodiscard]] std::optional<VertexId> read_optional_vertex(std::istream& is) {
  const auto has = read_pod<std::uint8_t>(is);
  const auto v = read_pod<VertexId>(is);
  return has ? std::optional<VertexId>(v) : std::nullopt;
}

// A caller-owned StartSampler must draw from the method's start law.
void check_start_sampler(const StartSampler& start_sampler, StartMode mode,
                         const char* who) {
  if (start_sampler.mode() != mode) {
    throw std::invalid_argument(std::string(who) +
                                ": start sampler has the wrong mode");
  }
}

}  // namespace

// ---------------------------------------------------------------- Frontier

void FrontierCursor::validate(const Graph& /*g*/, const Config& config) {
  if (config.dimension == 0) {
    throw std::invalid_argument("FrontierSampler: dimension m >= 1");
  }
}

FrontierCursor::FrontierCursor(const Graph& g, Config config, Rng rng)
    : FrontierCursor(g, config, rng, StartSampler(g, config.start)) {}

FrontierCursor::FrontierCursor(const Graph& g, Config config, Rng rng,
                               const StartSampler& start_sampler)
    : SamplerCursor(g, rng), config_(config) {
  validate(g, config_);
  check_start_sampler(start_sampler, config_.start, "FrontierCursor");
  frontier_.resize(config_.dimension);
  for (auto& v : frontier_) v = start_sampler.sample(rng_);
  starts_ = frontier_;
  init_selection();
}

FrontierCursor::FrontierCursor(const Graph& g, Config config,
                               std::vector<VertexId> frontier, Rng rng)
    : SamplerCursor(g, rng), config_(config), frontier_(std::move(frontier)) {
  validate(g, config_);
  if (frontier_.size() != config_.dimension) {
    throw std::invalid_argument(
        "FrontierCursor: |frontier| must equal dimension");
  }
  for (VertexId v : frontier_) {
    if (v >= g.num_vertices() || g.degree(v) == 0) {
      throw std::invalid_argument(
          "FrontierCursor: start vertex invalid or isolated");
    }
  }
  starts_ = frontier_;
  init_selection();
}

void FrontierCursor::init_selection() {
  selector_ = DegreeSelector(frontier_.size());
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    selector_.set(i, graph_->degree(frontier_[i]));
  }
}

bool FrontierCursor::next(StreamEvent& ev) {
  ev.clear();
  if (step_ == config_.steps) return false;
  const Graph& g = *graph_;
  const std::size_t i = selector_.sample(rng_);  // line 4: walker ∝ degree
  const VertexId u = frontier_[i];
  const VertexId v = step_uniform_neighbor(g, u, rng_);  // line 5
  ev.edge = Edge{u, v};                                  // line 6
  ev.has_edge = true;
  frontier_[i] = v;
  selector_.set(i, g.degree(v));
  ++step_;
  return true;
}

std::size_t FrontierCursor::append_batch(StreamEventBlock& block,
                                         std::size_t max_steps) {
  const std::uint64_t remaining = config_.steps - step_;
  const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
      std::min(max_steps, block.room()), remaining));
  if (want == 0) return 0;
  const Graph& g = *graph_;
  Rng rng = rng_;  // hot state in locals; written back after the loop
  VertexId* frontier = frontier_.data();
  for (std::size_t k = 0; k < want; ++k) {
    const std::size_t i = selector_.sample(rng);  // line 4: walker ∝ degree
    const VertexId u = frontier[i];
    const auto nbrs = g.neighbors(u);                      // line 5
    const auto pick =
        static_cast<std::uint32_t>(uniform_index(rng, nbrs.size()));
    const VertexId v = nbrs[pick];
    const std::uint32_t dv = g.degree(v);
    // Warm v's adjacency now: this walker is next selected ~m steps
    // from now, far beyond the prefetch latency, so its step then
    // hits cache instead of stalling on main memory.
    g.prefetch_neighbors(v);
    block.push_edge(u, v, dv, pick);                       // line 6
    frontier[i] = v;
    selector_.set(i, dv);
  }
  step_ += want;
  rng_ = rng;
  return want;
}

double FrontierCursor::cost() const noexcept {
  return static_cast<double>(step_) +
         static_cast<double>(config_.dimension) * config_.jump_cost;
}

void FrontierCursor::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, config_.dimension);
  write_pod<std::uint64_t>(os, config_.steps);
  write_pod<double>(os, config_.jump_cost);
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(config_.start));
  // Two retired slots keep the checkpoint layout: the walker-selection
  // byte (one strategy is left, written as 0) and a double that held a
  // running degree total (written as 0.0). load_state expects both.
  write_pod<std::uint8_t>(os, 0);
  write_pod<std::uint64_t>(os, step_);
  write_vector(os, frontier_);
  write_vector(os, starts_);
  write_pod<double>(os, 0.0);
  write_rng(os, rng_);
}

void FrontierCursor::load_state(std::istream& is) {
  expect_pod<std::uint64_t>(is, config_.dimension, "dimension");
  expect_pod<std::uint64_t>(is, config_.steps, "steps");
  expect_pod<double>(is, config_.jump_cost, "jump_cost");
  expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(config_.start),
                           "start mode");
  expect_pod<std::uint8_t>(is, 0, "selection");
  step_ = read_pod<std::uint64_t>(is);
  frontier_ = read_vector<VertexId>(is);
  starts_ = read_vector<VertexId>(is);
  expect_pod<double>(is, 0.0, "retired slot");
  read_rng(is, rng_);
  if (frontier_.size() != config_.dimension || step_ > config_.steps) {
    throw IoError("FrontierCursor: corrupt checkpoint (frontier size)");
  }
  for (VertexId v : frontier_) check_position(*graph_, v, "frontier");
  // The selector is a pure function of the frontier degrees, so the
  // checkpoint does not store it.
  init_selection();
}

// ---------------------------------------------------------------- SingleRW

void SingleRwCursor::validate(const Graph& g, const Config& config) {
  check_fixed_start(g, config.fixed_start, "SingleRandomWalk");
  if (!(config.laziness >= 0.0 && config.laziness < 1.0)) {
    throw std::invalid_argument("SingleRandomWalk: laziness in [0, 1)");
  }
}

SingleRwCursor::SingleRwCursor(const Graph& g, Config config, Rng rng)
    : SingleRwCursor(g, config, rng, StartSampler(g, config.start)) {}

SingleRwCursor::SingleRwCursor(const Graph& g, Config config, Rng rng,
                               const StartSampler& start_sampler)
    : SamplerCursor(g, rng), config_(config) {
  validate(g, config_);
  check_start_sampler(start_sampler, config_.start, "SingleRwCursor");
  u_ = config_.fixed_start ? *config_.fixed_start : start_sampler.sample(rng_);
  starts_.push_back(u_);
}

bool SingleRwCursor::next(StreamEvent& ev) {
  ev.clear();
  const bool burning = burn_done_ < config_.burn_in;
  if (!burning && step_ == config_.steps) return false;
  if (config_.laziness > 0.0 && bernoulli(rng_, config_.laziness)) {
    // lazy stay: budget spent, no sample
  } else {
    const VertexId v = step_uniform_neighbor(*graph_, u_, rng_);
    if (!burning) {
      ev.edge = Edge{u_, v};
      ev.has_edge = true;
    }
    u_ = v;
  }
  if (burning) {
    ++burn_done_;
  } else {
    ++step_;
  }
  return true;
}

std::size_t SingleRwCursor::append_batch(StreamEventBlock& block,
                                         std::size_t max_steps) {
  const std::size_t want = std::min(max_steps, block.room());
  const Graph& g = *graph_;
  const double laziness = config_.laziness;
  Rng rng = rng_;
  VertexId u = u_;
  std::size_t taken = 0;
  // Burn-in: budget spent, nothing recorded.
  while (burn_done_ < config_.burn_in && taken < want) {
    if (laziness > 0.0 && bernoulli(rng, laziness)) {
      // lazy stay
    } else {
      const auto nbrs = g.neighbors(u);
      u = nbrs[uniform_index(rng, nbrs.size())];
    }
    block.push_empty();
    ++burn_done_;
    ++taken;
  }
  if (laziness == 0.0) {
    // Fast path: every step moves and records an edge.
    const std::uint64_t n = std::min<std::uint64_t>(
        want - taken, config_.steps - step_);
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto nbrs = g.neighbors(u);
      const auto pick =
          static_cast<std::uint32_t>(uniform_index(rng, nbrs.size()));
      const VertexId v = nbrs[pick];
      block.push_edge(u, v, g.degree(v), pick);
      u = v;
    }
    step_ += n;
    taken += static_cast<std::size_t>(n);
  } else {
    while (step_ < config_.steps && taken < want) {
      if (bernoulli(rng, laziness)) {
        block.push_empty();
      } else {
        const auto nbrs = g.neighbors(u);
        const auto pick =
            static_cast<std::uint32_t>(uniform_index(rng, nbrs.size()));
        const VertexId v = nbrs[pick];
        block.push_edge(u, v, g.degree(v), pick);
        u = v;
      }
      ++step_;
      ++taken;
    }
  }
  u_ = u;
  rng_ = rng;
  return taken;
}

double SingleRwCursor::cost() const noexcept {
  return static_cast<double>(burn_done_) + static_cast<double>(step_) + 1.0;
}

void SingleRwCursor::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, config_.steps);
  write_pod<std::uint64_t>(os, config_.burn_in);
  write_pod<double>(os, config_.laziness);
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(config_.start));
  write_optional_vertex(os, config_.fixed_start);
  write_pod<VertexId>(os, u_);
  write_pod<std::uint64_t>(os, burn_done_);
  write_pod<std::uint64_t>(os, step_);
  write_vector(os, starts_);
  write_rng(os, rng_);
}

void SingleRwCursor::load_state(std::istream& is) {
  expect_pod<std::uint64_t>(is, config_.steps, "steps");
  expect_pod<std::uint64_t>(is, config_.burn_in, "burn_in");
  expect_pod<double>(is, config_.laziness, "laziness");
  expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(config_.start),
                           "start mode");
  const auto fixed = read_optional_vertex(is);
  if (fixed != config_.fixed_start) {
    throw IoError("stream checkpoint: configuration mismatch: fixed_start");
  }
  u_ = read_pod<VertexId>(is);
  burn_done_ = read_pod<std::uint64_t>(is);
  step_ = read_pod<std::uint64_t>(is);
  starts_ = read_vector<VertexId>(is);
  read_rng(is, rng_);
  check_position(*graph_, u_, "walker");
  if (burn_done_ > config_.burn_in || step_ > config_.steps) {
    throw IoError("SingleRwCursor: corrupt checkpoint (counters)");
  }
}

// -------------------------------------------------------------- MultipleRW

void MultipleRwCursor::validate(const Graph& /*g*/, const Config& config) {
  if (config.num_walkers == 0) {
    throw std::invalid_argument("MultipleRandomWalks: num_walkers >= 1");
  }
}

MultipleRwCursor::MultipleRwCursor(const Graph& g, Config config, Rng rng)
    : SamplerCursor(g, rng),
      config_(config),
      owned_start_(std::in_place, g, config.start),
      start_sampler_(&*owned_start_) {
  validate(g, config_);
  starts_.reserve(config_.num_walkers);
}

MultipleRwCursor::MultipleRwCursor(const Graph& g, Config config, Rng rng,
                                   const StartSampler& start_sampler)
    : SamplerCursor(g, rng), config_(config), start_sampler_(&start_sampler) {
  validate(g, config_);
  check_start_sampler(start_sampler, config_.start, "MultipleRwCursor");
  starts_.reserve(config_.num_walkers);
}

bool MultipleRwCursor::next(StreamEvent& ev) {
  ev.clear();
  if (walker_ == config_.num_walkers) return false;
  if (starts_.size() == walker_) {
    // Current walker not yet placed: this query is its start jump.
    u_ = start_sampler_->sample(rng_);
    starts_.push_back(u_);
    if (config_.steps_per_walker == 0) ++walker_;
    return true;
  }
  const VertexId v = step_uniform_neighbor(*graph_, u_, rng_);
  ev.edge = Edge{u_, v};
  ev.has_edge = true;
  u_ = v;
  ++step_;
  if (step_ == config_.steps_per_walker) {
    ++walker_;
    step_ = 0;
  }
  return true;
}

std::size_t MultipleRwCursor::append_batch(StreamEventBlock& block,
                                           std::size_t max_steps) {
  const std::size_t want = std::min(max_steps, block.room());
  const Graph& g = *graph_;
  Rng rng = rng_;
  std::size_t taken = 0;
  while (taken < want && walker_ < config_.num_walkers) {
    if (starts_.size() == walker_) {
      // Current walker not yet placed: this query is its start jump.
      u_ = start_sampler_->sample(rng);
      starts_.push_back(u_);
      block.push_empty();
      ++taken;
      if (config_.steps_per_walker == 0) ++walker_;
      continue;
    }
    // Advance the current walker as far as the block and its step budget
    // allow in one tight loop.
    const std::uint64_t n = std::min<std::uint64_t>(
        want - taken, config_.steps_per_walker - step_);
    VertexId u = u_;
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto nbrs = g.neighbors(u);
      const auto pick =
          static_cast<std::uint32_t>(uniform_index(rng, nbrs.size()));
      const VertexId v = nbrs[pick];
      block.push_edge(u, v, g.degree(v), pick);
      u = v;
    }
    u_ = u;
    step_ += n;
    taken += static_cast<std::size_t>(n);
    if (step_ == config_.steps_per_walker) {
      ++walker_;
      step_ = 0;
    }
  }
  rng_ = rng;
  return taken;
}

double MultipleRwCursor::cost() const noexcept {
  if (walker_ == config_.num_walkers) {
    // Finished: the exact batch expression, m * (steps + c).
    return static_cast<double>(config_.num_walkers) *
           (static_cast<double>(config_.steps_per_walker) + config_.jump_cost);
  }
  const std::uint64_t steps_done =
      static_cast<std::uint64_t>(walker_) * config_.steps_per_walker + step_;
  return static_cast<double>(starts_.size()) * config_.jump_cost +
         static_cast<double>(steps_done);
}

void MultipleRwCursor::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, config_.num_walkers);
  write_pod<std::uint64_t>(os, config_.steps_per_walker);
  write_pod<double>(os, config_.jump_cost);
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(config_.start));
  write_vector(os, starts_);
  write_pod<VertexId>(os, u_);
  write_pod<std::uint64_t>(os, walker_);
  write_pod<std::uint64_t>(os, step_);
  write_rng(os, rng_);
}

void MultipleRwCursor::load_state(std::istream& is) {
  expect_pod<std::uint64_t>(is, config_.num_walkers, "num_walkers");
  expect_pod<std::uint64_t>(is, config_.steps_per_walker, "steps_per_walker");
  expect_pod<double>(is, config_.jump_cost, "jump_cost");
  expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(config_.start),
                           "start mode");
  starts_ = read_vector<VertexId>(is);
  u_ = read_pod<VertexId>(is);
  walker_ = read_pod<std::uint64_t>(is);
  step_ = read_pod<std::uint64_t>(is);
  read_rng(is, rng_);
  if (walker_ > config_.num_walkers || starts_.size() > config_.num_walkers) {
    throw IoError("MultipleRwCursor: corrupt checkpoint (counters)");
  }
  if (starts_.size() > walker_) {
    // Current walker is placed; u_ is dereferenced on the next step.
    check_position(*graph_, u_, "walker");
  }
}

// --------------------------------------------------------------------- RWJ

void RwjCursor::validate(const Graph& /*g*/, const Config& config) {
  if (!(config.jump_probability >= 0.0 && config.jump_probability <= 1.0)) {
    throw std::invalid_argument(
        "RandomWalkWithJumps: jump_probability in [0, 1]");
  }
  if (!(config.cost.hit_ratio > 0.0 && config.cost.hit_ratio <= 1.0)) {
    throw std::invalid_argument("RandomWalkWithJumps: hit_ratio in (0,1]");
  }
  // Jumps that cost nothing (or refund budget) and a budget that is not
  // finite can each keep a run going until memory runs out.
  if (!(config.cost.jump_cost > 0.0)) {
    throw std::invalid_argument("RandomWalkWithJumps: jump_cost > 0");
  }
  if (!std::isfinite(config.budget)) {
    throw std::invalid_argument("RandomWalkWithJumps: budget must be finite");
  }
}

RecordBounds RwjCursor::record_bounds(const Config& config) noexcept {
  const auto budget_steps = static_cast<std::uint64_t>(
      std::clamp(config.budget, 0.0, 4294967296.0));  // 2^32
  return {.edges = budget_steps, .vertices = budget_steps + 1};
}

RwjCursor::RwjCursor(const Graph& g, Config config, Rng rng)
    : SamplerCursor(g, rng),
      config_(config),
      owned_start_(std::in_place, g, start_mode(config)),
      start_sampler_(&*owned_start_) {
  init();
}

RwjCursor::RwjCursor(const Graph& g, Config config, Rng rng,
                     const StartSampler& start_sampler)
    : SamplerCursor(g, rng), config_(config), start_sampler_(&start_sampler) {
  check_start_sampler(start_sampler, start_mode(config_), "RwjCursor");
  init();
}

void RwjCursor::init() {
  validate(*graph_, config_);
  // Initial placement is one paid jump.
  if (!pay_jump()) {
    done_ = true;
    return;
  }
  v_ = start_sampler_->sample(rng_);
  starts_.push_back(v_);
  pending_vertex_ = v_;
}

bool RwjCursor::pay_jump() {
  const std::uint64_t misses =
      geometric_failures(rng_, config_.cost.hit_ratio);
  const double streak =
      static_cast<double>(misses + 1) * config_.cost.jump_cost;
  if (cost_ + streak > config_.budget) {
    cost_ = config_.budget;
    return false;
  }
  cost_ += streak;
  return true;
}

bool RwjCursor::next(StreamEvent& ev) {
  ev.clear();
  if (pending_vertex_) {
    ev.vertex = *pending_vertex_;
    ev.has_vertex = true;
    pending_vertex_.reset();
    return true;
  }
  if (done_) return false;
  if (config_.jump_probability > 0.0 &&
      bernoulli(rng_, config_.jump_probability)) {
    if (!pay_jump()) {
      done_ = true;
      return false;
    }
    v_ = start_sampler_->sample(rng_);
    ev.vertex = v_;
    ev.has_vertex = true;
    return true;
  }
  if (cost_ + 1.0 > config_.budget) {
    done_ = true;
    return false;
  }
  cost_ += 1.0;
  const VertexId w = step_uniform_neighbor(*graph_, v_, rng_);
  ev.edge = Edge{v_, w};
  ev.has_edge = true;
  ev.vertex = w;
  ev.has_vertex = true;
  v_ = w;
  return true;
}

std::size_t RwjCursor::append_batch(StreamEventBlock& block,
                                    std::size_t max_steps) {
  const std::size_t want = std::min(max_steps, block.room());
  std::size_t taken = 0;
  if (want != 0 && pending_vertex_) {
    block.push_vertex(*pending_vertex_);
    pending_vertex_.reset();
    ++taken;
  }
  if (done_) return taken;
  const Graph& g = *graph_;
  const bool jumps = config_.jump_probability > 0.0;
  const double budget = config_.budget;
  while (taken < want) {
    if (jumps && bernoulli(rng_, config_.jump_probability)) {
      if (!pay_jump()) {
        done_ = true;
        return taken;
      }
      v_ = start_sampler_->sample(rng_);
      block.push_vertex(v_);
      ++taken;
      continue;
    }
    if (cost_ + 1.0 > budget) {
      done_ = true;
      return taken;
    }
    cost_ += 1.0;
    const auto nbrs = g.neighbors(v_);
    const auto pick =
        static_cast<std::uint32_t>(uniform_index(rng_, nbrs.size()));
    const VertexId w = nbrs[pick];
    block.push_edge_vertex(v_, w, g.degree(w), w, pick);
    v_ = w;
    ++taken;
  }
  return taken;
}

void RwjCursor::save_state(std::ostream& os) const {
  write_pod<double>(os, config_.budget);
  write_pod<double>(os, config_.jump_probability);
  write_pod<double>(os, config_.cost.jump_cost);
  write_pod<double>(os, config_.cost.hit_ratio);
  write_vector(os, starts_);
  write_pod<VertexId>(os, v_);
  write_optional_vertex(os, pending_vertex_);
  write_pod<double>(os, cost_);
  write_pod<std::uint8_t>(os, done_ ? 1 : 0);
  write_rng(os, rng_);
}

void RwjCursor::load_state(std::istream& is) {
  expect_pod<double>(is, config_.budget, "budget");
  expect_pod<double>(is, config_.jump_probability, "jump_probability");
  expect_pod<double>(is, config_.cost.jump_cost, "jump_cost");
  expect_pod<double>(is, config_.cost.hit_ratio, "hit_ratio");
  starts_ = read_vector<VertexId>(is);
  v_ = read_pod<VertexId>(is);
  pending_vertex_ = read_optional_vertex(is);
  cost_ = read_pod<double>(is);
  done_ = read_pod<std::uint8_t>(is) != 0;
  read_rng(is, rng_);
  if (!done_) check_position(*graph_, v_, "walker");
  if (pending_vertex_ && *pending_vertex_ >= graph_->num_vertices()) {
    throw IoError("RwjCursor: corrupt checkpoint (pending vertex)");
  }
}

// -------------------------------------------------------------- Metropolis

void MetropolisCursor::validate(const Graph& g, const Config& config) {
  check_fixed_start(g, config.fixed_start, "MetropolisHastingsWalk");
}

MetropolisCursor::MetropolisCursor(const Graph& g, Config config, Rng rng)
    : MetropolisCursor(g, config, rng, StartSampler(g, config.start)) {}

MetropolisCursor::MetropolisCursor(const Graph& g, Config config, Rng rng,
                                   const StartSampler& start_sampler)
    : SamplerCursor(g, rng), config_(config) {
  validate(g, config_);
  check_start_sampler(start_sampler, config_.start, "MetropolisCursor");
  v_ = config_.fixed_start ? *config_.fixed_start : start_sampler.sample(rng_);
  starts_.push_back(v_);
  pending_vertex_ = v_;
}

bool MetropolisCursor::next(StreamEvent& ev) {
  ev.clear();
  if (pending_vertex_) {
    ev.vertex = *pending_vertex_;
    ev.has_vertex = true;
    pending_vertex_.reset();
    return true;
  }
  if (step_ == config_.steps) return false;
  const Graph& g = *graph_;
  const VertexId w = step_uniform_neighbor(g, v_, rng_);
  const double accept = static_cast<double>(g.degree(v_)) /
                        static_cast<double>(g.degree(w));
  if (accept >= 1.0 || uniform01(rng_) < accept) {
    ev.edge = Edge{v_, w};
    ev.has_edge = true;
    v_ = w;
  }
  ev.vertex = v_;
  ev.has_vertex = true;
  ++step_;
  return true;
}

std::size_t MetropolisCursor::append_batch(StreamEventBlock& block,
                                           std::size_t max_steps) {
  const std::size_t want = std::min(max_steps, block.room());
  std::size_t taken = 0;
  if (want != 0 && pending_vertex_) {
    block.push_vertex(*pending_vertex_);
    pending_vertex_.reset();
    ++taken;
  }
  const std::uint64_t n = std::min<std::uint64_t>(
      want - taken, config_.steps - step_);
  if (n == 0) return taken;
  const Graph& g = *graph_;
  Rng rng = rng_;
  VertexId v = v_;
  // deg(v) carried across iterations: on accept it is the just-fetched
  // deg(w), so the steady state does one degree lookup per proposal.
  std::uint32_t deg_v = g.degree(v);
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto nbrs = g.neighbors(v);
    const auto pick =
        static_cast<std::uint32_t>(uniform_index(rng, nbrs.size()));
    const VertexId w = nbrs[pick];
    const std::uint32_t deg_w = g.degree(w);
    const double accept =
        static_cast<double>(deg_v) / static_cast<double>(deg_w);
    if (accept >= 1.0 || uniform01(rng) < accept) {
      block.push_edge_vertex(v, w, deg_w, w, pick);
      v = w;
      deg_v = deg_w;
    } else {
      block.push_vertex(v);
    }
  }
  step_ += n;
  taken += static_cast<std::size_t>(n);
  v_ = v;
  rng_ = rng;
  return taken;
}

double MetropolisCursor::cost() const noexcept {
  return static_cast<double>(step_) + 1.0;
}

void MetropolisCursor::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, config_.steps);
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(config_.start));
  write_optional_vertex(os, config_.fixed_start);
  write_pod<VertexId>(os, v_);
  write_optional_vertex(os, pending_vertex_);
  write_pod<std::uint64_t>(os, step_);
  write_vector(os, starts_);
  write_rng(os, rng_);
}

void MetropolisCursor::load_state(std::istream& is) {
  expect_pod<std::uint64_t>(is, config_.steps, "steps");
  expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(config_.start),
                           "start mode");
  const auto fixed = read_optional_vertex(is);
  if (fixed != config_.fixed_start) {
    throw IoError("stream checkpoint: configuration mismatch: fixed_start");
  }
  v_ = read_pod<VertexId>(is);
  pending_vertex_ = read_optional_vertex(is);
  step_ = read_pod<std::uint64_t>(is);
  starts_ = read_vector<VertexId>(is);
  read_rng(is, rng_);
  check_position(*graph_, v_, "walker");
  if (step_ > config_.steps ||
      (pending_vertex_ && *pending_vertex_ >= graph_->num_vertices())) {
    throw IoError("MetropolisCursor: corrupt checkpoint (counters)");
  }
}

}  // namespace frontier
