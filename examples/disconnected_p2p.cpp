// Scenario: measuring file replication in a peer-to-peer network whose
// connection graph has disconnected islands (Section 4.5's failure mode).
// A single random walk can never leave the island it starts in, so its
// estimate reflects only that island; Frontier Sampling spreads m walkers
// over all islands and weighs their contributions correctly.
#include <iostream>

#include "core/frontier.hpp"

int main() {
  using namespace frontier;
  Rng rng(99);

  // A P2P overlay with one big swarm and many small, disconnected swarms.
  std::vector<Graph> swarms;
  swarms.push_back(barabasi_albert(20000, 4, rng));  // the main swarm
  for (int i = 0; i < 40; ++i) {
    swarms.push_back(barabasi_albert(50 + uniform_index(rng, 200), 2, rng));
  }
  const Graph g = disjoint_union(swarms);
  const ComponentInfo comps = connected_components(g);
  std::cout << "overlay: " << g.summary() << '\n'
            << "components: " << comps.num_components() << " (LCC holds "
            << format_percent(
                   static_cast<double>(comps.size[comps.largest()]) /
                   static_cast<double>(g.num_vertices()))
            << " of peers)\n\n";

  // "File copies": peers in small swarms are twice as likely to hold the
  // file — exactly the kind of label whose density a trapped walker
  // misjudges.
  std::vector<bool> has_file(g.num_vertices());
  const std::uint32_t lcc_id = comps.largest();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double p = comps.component_of[v] == lcc_id ? 0.2 : 0.4;
    has_file[v] = bernoulli(rng, p);
  }
  const auto pred = [&has_file](VertexId v) { return has_file[v]; };
  const double truth = exact_label_density(g, pred);

  const double budget = static_cast<double>(g.num_vertices()) / 20.0;
  const std::size_t m = 200;

  TextTable table({"method", "estimate", "true", "relative error"});
  const auto report = [&](const std::string& name, double est) {
    table.add_row({name, format_number(est), format_number(truth),
                   format_percent(std::abs(est - truth) / truth)});
  };

  const FrontierSampler fs(
      g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});
  report("FrontierSampling(m=200)",
         estimate_vertex_label_density(g, fs.run(rng).edges, pred));

  const SingleRandomWalk srw(
      g, {.steps = single_rw_steps(budget)});
  report("SingleRW",
         estimate_vertex_label_density(g, srw.run(rng).edges, pred));

  const MultipleRandomWalks mrw(
      g, {.num_walkers = m,
          .steps_per_walker = multiple_rw_steps_per_walker(budget, m, 1.0)});
  report("MultipleRW(m=200)",
         estimate_vertex_label_density(g, mrw.run(rng).edges, pred));

  table.print(std::cout);
  std::cout << "\nSingleRW reports the density of whatever swarm it landed "
               "in; FS aggregates all swarms with the correct weights.\n";
  return 0;
}
