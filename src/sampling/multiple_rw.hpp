// MultipleRW: m mutually independent random walkers (Section 4.4) — the
// naive remedy for walker trapping that the paper shows to be inferior to
// Frontier Sampling when walkers start from uniformly sampled vertices.
#pragma once

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

/// Batch form of MultipleRwCursor (stream/sampler_cursors.hpp). One run
/// records the edges of all m walkers concatenated in walker order;
/// estimators aggregate them exactly as the paper does.
using MultipleRandomWalks = WalkSampler<MultipleRwCursor>;

}  // namespace frontier
