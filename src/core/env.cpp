#include "core/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace frontier {
namespace {

/// The variable's value with surrounding whitespace stripped, or nullopt
/// semantics via empty-check at the call sites: unset and empty both mean
/// "use the fallback", anything else must parse completely.
const char* env_raw(const std::string& name) {
  const char* raw = std::getenv(name.c_str());
  return (raw == nullptr || *raw == '\0') ? nullptr : raw;
}

[[noreturn]] void parse_fail(const std::string& name, const char* raw,
                             const std::string& expected) {
  throw std::invalid_argument(name + "=\"" + raw + "\": expected " +
                              expected);
}

bool only_trailing_space(const char* p) {
  while (*p != '\0') {
    if (std::isspace(static_cast<unsigned char>(*p)) == 0) return false;
    ++p;
  }
  return true;
}

}  // namespace

double env_double(const std::string& name, double fallback) {
  const char* raw = env_raw(name);
  if (raw == nullptr) return fallback;
  // strtod accepts C99 hex floats ("0x12" == 18.0); that is never what an
  // FS_* knob means, and env_u64 rejects the same text, so be consistent.
  if (std::strpbrk(raw, "xX") != nullptr) {
    parse_fail(name, raw, "a decimal number");
  }
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw || !only_trailing_space(end)) {
    parse_fail(name, raw, "a number");
  }
  if (!std::isfinite(value)) parse_fail(name, raw, "a finite number");
  return value;
}

std::uint64_t env_u64(const std::string& name, std::uint64_t fallback,
                      std::uint64_t max) {
  const char* raw = env_raw(name);
  if (raw == nullptr) return fallback;
  // strtoull silently wraps negative input ("-3" becomes 2^64-3); reject
  // a leading minus sign explicitly.
  const char* first = raw;
  while (std::isspace(static_cast<unsigned char>(*first)) != 0) ++first;
  if (*first == '-') parse_fail(name, raw, "a non-negative integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || !only_trailing_space(end)) {
    parse_fail(name, raw, "a non-negative integer");
  }
  if (errno == ERANGE) parse_fail(name, raw, "an integer below 2^64");
  if (value > max) {
    parse_fail(name, raw, "an integer at most " + std::to_string(max));
  }
  return static_cast<std::uint64_t>(value);
}

std::size_t env_threads() {
  return static_cast<std::size_t>(env_u64("FS_THREADS", 0));
}

}  // namespace frontier
