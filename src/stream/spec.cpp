#include "stream/spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sampling/budget.hpp"
#include "stats/json.hpp"
#include "stream/motif_sinks.hpp"

namespace frontier {

const std::vector<std::string>& CrawlSpec::methods() {
  static const std::vector<std::string> kMethods = {"fs", "srw", "mrw", "mh",
                                                    "rwj"};
  return kMethods;
}

void CrawlSpec::validate() const {
  const auto& known = methods();
  if (std::find(known.begin(), known.end(), method) == known.end()) {
    throw std::invalid_argument("unknown method: " + method);
  }
  if (!std::isfinite(budget) || budget <= 0.0) {
    throw std::invalid_argument("budget must be a positive finite number");
  }
  if (budget > 9.0e18) {
    throw std::invalid_argument("budget too large");
  }
  if (dimension == 0) {
    throw std::invalid_argument("dimension must be at least 1");
  }
}

CrawlSpec CrawlSpec::normalized(bool* clamped) const {
  validate();
  CrawlSpec out = *this;
  if (clamped != nullptr) *clamped = false;
  if (static_cast<double>(out.dimension) * 2.0 > out.budget) {
    const auto fit =
        std::max<std::size_t>(1, static_cast<std::size_t>(out.budget / 2.0));
    if (fit != out.dimension) {
      out.dimension = fit;
      if (clamped != nullptr) *clamped = true;
    }
  }
  return out;
}

std::unique_ptr<SamplerCursor> CrawlSpec::make_cursor(const Graph& g) const {
  Rng rng(seed);
  if (method == "fs") {
    return std::make_unique<FrontierCursor>(
        g,
        FrontierCursor::Config{
            .dimension = dimension,
            .steps = frontier_steps(budget, dimension, 1.0)},
        rng);
  }
  if (method == "srw") {
    return std::make_unique<SingleRwCursor>(
        g, SingleRwCursor::Config{.steps = single_rw_steps(budget)}, rng);
  }
  if (method == "mrw") {
    return std::make_unique<MultipleRwCursor>(
        g,
        MultipleRwCursor::Config{
            .num_walkers = dimension,
            .steps_per_walker =
                multiple_rw_steps_per_walker(budget, dimension, 1.0)},
        rng);
  }
  if (method == "mh") {
    return std::make_unique<MetropolisCursor>(
        g, MetropolisCursor::Config{.steps = single_rw_steps(budget)}, rng);
  }
  if (method == "rwj") {
    return std::make_unique<RwjCursor>(
        g, RwjCursor::Config{.budget = budget}, rng);
  }
  throw std::invalid_argument("unknown method: " + method);
}

SinkSet CrawlSpec::make_sinks(const Graph& g) const {
  SinkSet sinks;
  sinks.push_back(
      std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
  sinks.push_back(std::make_unique<AssortativitySink>(g));
  sinks.push_back(std::make_unique<GraphMomentsSink>(g));
  sinks.push_back(std::make_unique<UniformDegreeSink>(g));
  sinks.push_back(std::make_unique<TriangleSink>(g));
  sinks.push_back(std::make_unique<ClusteringSink>(g));
  if (motifs) sinks.push_back(std::make_unique<MotifSink>(g));
  return sinks;
}

CrawlSpec::Roster CrawlSpec::roster(
    std::span<const std::unique_ptr<EstimatorSink>> sinks) {
  // Positions mirror make_sinks.
  return Roster{
      .degree_distribution =
          static_cast<const DegreeDistributionSink*>(sinks[0].get()),
      .assortativity = static_cast<const AssortativitySink*>(sinks[1].get()),
      .moments = static_cast<const GraphMomentsSink*>(sinks[2].get()),
      .uniform_degree = static_cast<const UniformDegreeSink*>(sinks[3].get()),
      .triangles = static_cast<const TriangleSink*>(sinks[4].get()),
      .clustering = static_cast<const ClusteringSink*>(sinks[5].get()),
      .motifs = sinks.size() > 6
                    ? static_cast<const MotifSink*>(sinks[6].get())
                    : nullptr};
}

std::unique_ptr<StreamEngine> CrawlSpec::make_engine(const Graph& g) const {
  return std::make_unique<StreamEngine>(make_cursor(g), make_sinks(g));
}

std::string estimates_fields(const CrawlSpec& spec,
                             const StreamEngine& engine) {
  const CrawlSpec::Roster sinks = CrawlSpec::roster(engine.sinks());

  const Graph& g = engine.cursor().graph();
  const double vol = static_cast<double>(g.volume());
  std::string out = "\"events\":" + std::to_string(engine.events()) +
                    ",\"cost\":" + json::number(engine.cursor().cost()) +
                    ",\"estimates\":{";
  const auto field = [&out](const char* name, double value) {
    if (out.back() != '{') out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += json::number(value);
  };
  if (spec.method == "mh") {
    field("avg_degree_uniform", sinks.uniform_degree->value());
  } else {
    field("avg_degree", sinks.moments->average_degree());
    field("volume",
          sinks.moments->volume(static_cast<double>(g.num_vertices())));
    field("assortativity", sinks.assortativity->value());
    field("triangles", sinks.triangles->triangle_count(vol));
    field("transitivity", sinks.triangles->transitivity());
    field("clustering", sinks.clustering->global_clustering());
    if (spec.motifs) {
      const MotifEstimate est = sinks.motifs->estimate(vol);
      field("wedge", est.wedge);
      field("path4", est.path4);
      field("claw", est.claw);
      field("cycle4", est.cycle4);
      field("paw", est.paw);
      field("diamond", est.diamond);
      field("clique4", est.clique4);
    }
  }
  out += '}';
  return out;
}

}  // namespace frontier
