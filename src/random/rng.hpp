// Deterministic, splittable pseudo-random number generation.
//
// All randomness in libfrontier flows through an explicitly seeded
// Xoshiro256StarStar engine; there is no global RNG state. Monte-Carlo
// replications derive independent streams with split_stream(), which uses
// SplitMix64 to decorrelate seeds — the scheme recommended by the xoshiro
// authors for parallel streams.
#pragma once

#include <array>
#include <cstdint>

#ifdef _MSC_VER
#include <intrin.h>
#endif

namespace frontier {

/// SplitMix64: a tiny, high-quality 64-bit mixer. Used to expand seeds and
/// derive independent substreams. Passes BigCrush as a generator in its own
/// right; here it only seeds Xoshiro.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna. Fast (sub-ns per draw), 256-bit
/// state, passes all known statistical test batteries. Satisfies the
/// UniformRandomBitGenerator concept so it composes with <random>.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Xoshiro256StarStar(std::uint64_t seed = 0xfeedfacecafef00dULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return ~static_cast<result_type>(0);
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent generator for parallel replication `index`.
  /// Streams for distinct indices are decorrelated by double SplitMix64
  /// mixing of (base state, index).
  [[nodiscard]] Xoshiro256StarStar split_stream(std::uint64_t index) const noexcept {
    SplitMix64 sm(state_[0] ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
    Xoshiro256StarStar out(sm.next() ^ state_[3]);
    return out;
  }

  /// The raw 256-bit engine state. Restoring a saved state resumes the
  /// stream exactly where it left off (stream/ checkpoints rely on this).
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return state_;
  }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    state_ = s;
  }

  friend bool operator==(const Xoshiro256StarStar& a,
                         const Xoshiro256StarStar& b) noexcept {
    return a.state_ == b.state_;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Default engine used across the library.
using Rng = Xoshiro256StarStar;

/// Uniform double in [0, 1) with 53 bits of precision.
[[nodiscard]] inline double uniform01(Rng& rng) noexcept {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

namespace detail {

/// 64x64 -> 128-bit multiply, portable across GCC/Clang/MSVC.
inline void mul64x64(std::uint64_t a, std::uint64_t b, std::uint64_t& hi,
                     std::uint64_t& lo) noexcept {
#if defined(__SIZEOF_INT128__)
  const unsigned __int128 p =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  hi = static_cast<std::uint64_t>(p >> 64);
  lo = static_cast<std::uint64_t>(p);
#else
  lo = _umul128(a, b, &hi);
#endif
}

}  // namespace detail

/// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection
/// method: unbiased and ~2x faster than std::uniform_int_distribution.
/// Inline: this is the innermost call of every walker step (one draw per
/// sampled edge), and keeping it in the caller's loop is worth several ns
/// per step on the batched fast path.
[[nodiscard]] inline std::uint64_t uniform_index(Rng& rng,
                                                 std::uint64_t n) noexcept {
  if (n <= 1) return 0;
  // Lemire 2019, "Fast Random Integer Generation in an Interval".
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint64_t x = rng();
  detail::mul64x64(x, n, hi, lo);
  if (lo < n) {
    const std::uint64_t threshold = (~n + 1) % n;  // = 2^64 mod n
    while (lo < threshold) {
      x = rng();
      detail::mul64x64(x, n, hi, lo);
    }
  }
  return hi;
}

/// Bernoulli draw with success probability p (clamped to [0,1]).
[[nodiscard]] inline bool bernoulli(Rng& rng, double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01(rng) < p;
}

/// Exponentially distributed draw with the given rate (> 0).
[[nodiscard]] double exponential(Rng& rng, double rate) noexcept;

/// Number of failures before the first success of a Bernoulli(p) sequence
/// (geometric on {0,1,2,...}). Requires p in (0, 1].
[[nodiscard]] std::uint64_t geometric_failures(Rng& rng, double p) noexcept;

}  // namespace frontier
