// Random walk with jumps (RWJ) — the Web-sampling baseline of the related
// work (Section 7: [17, 32] sample pages near-uniformly by mixing walk
// steps with uniform jumps, PageRank-style).
//
// From v, with probability `jump_probability` the walker teleports to a
// uniformly random vertex (paying the random-vertex query cost c, possibly
// inflated by a hit ratio); otherwise it takes a normal walk step. Jumps
// make the chain irreducible on disconnected graphs — the alternative cure
// for trapping — but (a) every jump costs c/hit_ratio budget, and (b) the
// stationary law is a PageRank-like mixture with no simple closed form, so
// the eq.-7 reweighting is no longer exactly unbiased. The FS comparison
// bench quantifies both effects.
#pragma once

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

/// Batch form of RwjCursor (stream/sampler_cursors.hpp). `edges` holds
/// walk transitions; jumps break the chain (the edge after a jump starts
/// at the landing vertex). `vertices` records every visited vertex
/// including jump landings.
using RandomWalkWithJumps = WalkSampler<RwjCursor>;

}  // namespace frontier
