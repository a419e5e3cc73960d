// SingleRW: the classic single random walker of Section 4.
#pragma once

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

/// Batch form of SingleRwCursor (stream/sampler_cursors.hpp), which
/// defines the walk, its burn-in and laziness, and its Config.
using SingleRandomWalk = WalkSampler<SingleRwCursor>;

}  // namespace frontier
