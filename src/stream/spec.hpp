// CrawlSpec — one description of a streaming crawl, shared by every
// front end that constructs one.
//
// `frontier_cli stream` and the frontier_serve daemon must produce
// bit-identical crawls for the same (method, budget, dimension, seed,
// motifs) tuple: identical cursor construction, identical sink roster in
// identical order, identical dimension clamping. Centralizing that here
// is what makes the served-vs-offline bit-identity gate (CI serve-smoke,
// tests/test_serve_protocol.cpp) a property of the architecture instead
// of a convention two tools have to keep re-agreeing on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stream/engine.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"

namespace frontier {

class TriangleSink;
class ClusteringSink;
class MotifSink;

struct CrawlSpec {
  std::string method = "fs";  ///< fs | srw | mrw | mh | rwj
  double budget = 0.0;        ///< total budgeted queries B; must be > 0
  std::size_t dimension = 100;  ///< walkers m (fs/mrw); must be >= 1
  std::uint64_t seed = 1;
  bool motifs = false;  ///< add the 3-/4-vertex motif census sink

  /// The accepted method names, in canonical order.
  [[nodiscard]] static const std::vector<std::string>& methods();

  /// Throws std::invalid_argument naming the field on any violation
  /// (unknown method, non-positive/non-finite budget, zero dimension,
  /// budget too large for a u64 step count).
  void validate() const;

  /// A copy with the dimension clamped so walkers keep at least half the
  /// budget for steps — the same rule `frontier_cli stream` has always
  /// applied. Sets *clamped when the dimension moved. validate()s first.
  [[nodiscard]] CrawlSpec normalized(bool* clamped = nullptr) const;

  /// The spec's cursor over `g`, RNG seeded from `seed`. Requires a
  /// normalized() spec (call sites assert nothing; an over-wide dimension
  /// simply produces the unclamped crawl).
  [[nodiscard]] std::unique_ptr<SamplerCursor> make_cursor(
      const Graph& g) const;

  /// The fixed sink roster, in the order the estimates renderer and the
  /// checkpoint identity depend on: degree distribution, assortativity,
  /// graph moments, uniform degree, triangles, clustering, then (iff
  /// `motifs`) the motif census.
  [[nodiscard]] SinkSet make_sinks(const Graph& g) const;

  /// Typed views of a make_sinks roster, by position; `motifs` is null
  /// when the roster has no motif sink.
  struct Roster {
    const DegreeDistributionSink* degree_distribution;
    const AssortativitySink* assortativity;
    const GraphMomentsSink* moments;
    const UniformDegreeSink* uniform_degree;
    const TriangleSink* triangles;
    const ClusteringSink* clustering;
    const MotifSink* motifs;
  };
  /// `sinks` must have been built by make_sinks (e.g. an engine's sinks()).
  [[nodiscard]] static Roster roster(
      std::span<const std::unique_ptr<EstimatorSink>> sinks);

  /// make_cursor + make_sinks wired into an engine.
  [[nodiscard]] std::unique_ptr<StreamEngine> make_engine(
      const Graph& g) const;
};

/// Renders the engine's current estimates as JSON object fields —
/// `"events":...,"cost":...,"estimates":{...}` without surrounding
/// braces, so callers can splice them into their own envelope (the serve
/// `estimates` response, the CLI --estimates-json file). Doubles are
/// rendered with json::number (shortest round-trip), so two engines in
/// bit-identical states produce byte-identical text. The engine must
/// have been built from `spec` over `make_sinks`'s roster.
[[nodiscard]] std::string estimates_fields(const CrawlSpec& spec,
                                           const StreamEngine& engine);

}  // namespace frontier
