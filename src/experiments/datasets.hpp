// Synthetic surrogates for the paper's evaluation datasets (Table 1).
//
// The original crawls (Flickr / LiveJournal / YouTube from Mislove et al.
// IMC'07, the CAIDA router-level traceroute graph, Hep-Th) are not
// redistributable. Each surrogate is a deterministic, seeded construction
// matching the *shape* properties the paper's claims depend on:
// heavy-tailed degrees (preferential attachment), the LCC mass fraction
// (small disconnected components built from a power-law configuration
// model plus isolated-edge dust), the mean degree, and — for Flickr —
// Zipf-popularity group affiliations covering ~21% of users (Section 6.5).
// docs/BENCHMARKS.md ("Surrogates and deviations") has the substitution
// table.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "experiments/config.hpp"
#include "graph/graph.hpp"
#include "random/rng.hpp"

namespace frontier {

/// A named evaluation graph, optionally with group-affiliation labels.
struct Dataset {
  std::string name;
  Graph graph;
  /// groups_of_vertex[v] = sorted group ids of v; empty when unlabeled.
  std::vector<std::vector<std::uint32_t>> groups_of_vertex;
  std::size_t num_groups = 0;

  [[nodiscard]] std::span<const std::uint32_t> groups(VertexId v) const {
    return groups_of_vertex.empty() ? std::span<const std::uint32_t>{}
                                    : groups_of_vertex[v];
  }
};

/// Flickr surrogate: ~94% LCC, mean degree ~12, heavy in-degree tail,
/// 300 Zipf-popular interest groups covering ~21% of vertices.
[[nodiscard]] Dataset synthetic_flickr(const ExperimentConfig& cfg);

/// LiveJournal surrogate: ~99.7% LCC, mean degree ~14.6.
[[nodiscard]] Dataset synthetic_livejournal(const ExperimentConfig& cfg);

/// YouTube surrogate: ~99.7% LCC, mean degree ~8.7.
[[nodiscard]] Dataset synthetic_youtube(const ExperimentConfig& cfg);

/// Router-level Internet surrogate: tree-like, mean degree ~3.2, a few
/// small disconnected fragments.
[[nodiscard]] Dataset synthetic_internet_rlt(const ExperimentConfig& cfg);

/// Hep-Th surrogate (Appendix B): small sparse citation-style graph.
[[nodiscard]] Dataset synthetic_hepth(const ExperimentConfig& cfg);

/// The paper's G_AB (Sections 6.1/6.2): two Barabási–Albert graphs with
/// equal vertex counts and average degrees 2 and 10, joined by a single
/// edge between their minimum-degree vertices. `half_size` vertices per
/// part (the paper uses 5e5; benches scale down).
[[nodiscard]] Dataset make_gab(std::size_t half_size, std::uint64_t seed);
[[nodiscard]] Dataset synthetic_gab(const ExperimentConfig& cfg);

/// G_AB variant with Erdős–Rényi halves (mean degrees 2 and 10) instead of
/// Barabási–Albert. At the paper's 5e5-vertex scale the BA construction has
/// a clearly positive assortativity (r = 0.08); at bench scale (~1e4) BA
/// hub variance swamps the between-component degree gap and r collapses to
/// ~0, destroying the signal the paper designed G_AB to expose for the
/// Table 2 experiment. ER halves restore a solidly positive global r while
/// keeping the within-half r ≈ 0 — the property that traps SingleRW.
[[nodiscard]] Dataset make_gab_er(std::size_t half_size, std::uint64_t seed);
[[nodiscard]] Dataset synthetic_gab_er(const ExperimentConfig& cfg);

/// All Table-1 datasets in paper order (Flickr, LiveJournal, YouTube,
/// Internet RLT) — convenience for Table 1/Table 2 benches.
[[nodiscard]] std::vector<Dataset> table1_datasets(
    const ExperimentConfig& cfg);

}  // namespace frontier
