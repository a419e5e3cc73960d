// Strict environment-variable parsing, shared by every module that reads
// a knob (FS_* experiment scaling in experiments/config.*, FS_BLOCK in
// stream/block.*). Unset or empty variables mean "use the fallback";
// set-but-malformed values (unparsable text, trailing garbage, C99 hex
// floats, non-finite doubles, negative integers that strtoull would
// silently wrap, integers above the caller's ceiling) throw
// std::invalid_argument naming the variable — they are never silently
// replaced by defaults.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace frontier {

[[nodiscard]] double env_double(const std::string& name, double fallback);
[[nodiscard]] std::uint64_t env_u64(
    const std::string& name, std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace frontier
