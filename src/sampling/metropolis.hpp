// Metropolis–Hastings random walk (related-work baseline, Section 7).
//
// MH-RW targets the *uniform* distribution over vertices: from v, propose a
// uniform neighbor w and accept with probability min(1, deg(v)/deg(w));
// otherwise stay at v. Every step (accepted or not) emits one vertex
// sample, so the visit sequence is asymptotically uniform over V and plain
// empirical averages are unbiased. The paper cites experiments [15, 29]
// showing MH-RW is usually less accurate than the reweighted plain RW.
#pragma once

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

/// Batch form of MetropolisCursor (stream/sampler_cursors.hpp). One run
/// holds the visit sequence in `vertices` (steps+1 entries, including the
/// start) and the accepted transitions in `edges`.
using MetropolisHastingsWalk = WalkSampler<MetropolisCursor>;

}  // namespace frontier
