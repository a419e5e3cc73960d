// libfrontier umbrella header — the public API.
//
// #include "core/frontier.hpp" pulls in the whole library:
//   * graph substrate (graph/, generators, components, metrics, io),
//   * samplers (sampling/): the batch walk samplers SingleRandomWalk,
//     MultipleRandomWalks, FrontierSampler, MetropolisHastingsWalk and
//     RandomWalkWithJumps (aliases of WalkSampler<Cursor>), plus
//     ParallelFrontierSampler, RandomVertexSampler, RandomEdgeSampler,
//   * streaming (stream/): SamplerCursor one-step iteration — one cursor
//     type per walk method, owning its Config — online EstimatorSinks,
//     StreamEngine, checkpoint/resume,
//   * estimators (estimators/): label densities, degree distributions,
//     assortativity, global clustering,
//   * statistics (stats/): NMSE/CNMSE accumulators, analytic error models,
//   * exact chain analysis (analysis/): G^m chains, walker-count laws,
//     transient edge-sampling probabilities,
//   * experiment harness (experiments/): datasets, replication, printing.
#pragma once

#include "core/types.hpp"
#include "core/version.hpp"
#include "core/io_error.hpp"
#include "core/checksum.hpp"
#include "core/durable.hpp"
#include "core/failpoint.hpp"

#include "random/rng.hpp"
#include "random/alias_table.hpp"

#include "graph/graph.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/components.hpp"
#include "graph/metrics.hpp"
#include "graph/io.hpp"

#include "sampling/budget.hpp"
#include "sampling/walk.hpp"
#include "sampling/single_rw.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/metropolis.hpp"
#include "sampling/random_vertex.hpp"
#include "sampling/random_edge.hpp"
#include "sampling/random_walk_with_jumps.hpp"
#include "sampling/parallel_fs.hpp"
#include "sampling/coverage.hpp"

#include "stream/block.hpp"
#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"
#include "stream/motif_sinks.hpp"
#include "stream/checkpoint.hpp"
#include "stream/engine.hpp"
#include "stream/spec.hpp"

#include "estimators/density.hpp"
#include "estimators/degree_distribution.hpp"
#include "estimators/assortativity.hpp"
#include "estimators/clustering.hpp"
#include "estimators/graph_moments.hpp"

#include "stats/accumulators.hpp"
#include "stats/bench_report.hpp"
#include "stats/error_metrics.hpp"
#include "stats/analytic.hpp"

#include "cli/options.hpp"
#include "cli/load.hpp"

#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/server.hpp"

#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/snapshot.hpp"
#include "obs/exporter.hpp"
#include "obs/crawl_metrics.hpp"

#include "analysis/dense_chain.hpp"
#include "analysis/cartesian_power.hpp"
#include "analysis/walker_counts.hpp"
#include "analysis/transient.hpp"
#include "analysis/spectral.hpp"
#include "analysis/conductance.hpp"
#include "analysis/motifs.hpp"

#include "experiments/config.hpp"
#include "experiments/datasets.hpp"
#include "experiments/replication_runner.hpp"
#include "experiments/printers.hpp"
