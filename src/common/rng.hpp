// Deterministic pseudo-random number generation.
//
// All stochastic components (traffic generators, Monte Carlo fault
// injection, Jellyfish wiring, greedy start offsets) draw from Rng so
// that every experiment is reproducible from a single seed.  The
// generator is xoshiro256++ seeded through SplitMix64, which is fast,
// passes BigCrush, and — unlike std::mt19937 — has a trivially
// copyable, cheap-to-fork state.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace quartz {

/// The complete engine state of an Rng, exposed so checkpointing can
/// serialize every generator exactly.  A generator restored through
/// set_state() continues the identical output stream — no generator in
/// a checkpointable component may hold entropy outside this struct.
struct RngState {
  std::uint64_t word[4]{};
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = kSplitMixGamma) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    for (auto& word : state_) {
      word = splitmix64(seed);
      seed += kSplitMixGamma;
    }
  }

  /// Uniform over all 64-bit values (xoshiro256++ step).
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    QUARTZ_REQUIRE(bound > 0, "bound must be positive");
    // Lemire's nearly-divisionless bounded generation with rejection.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) {
    QUARTZ_REQUIRE(lo <= hi, "empty range");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Exponentially distributed value with the given mean (> 0).
  double next_exponential(double mean) {
    QUARTZ_REQUIRE(mean > 0.0, "mean must be positive");
    double u = next_double();
    // next_double() can return exactly 0; log(0) is -inf.
    while (u <= 0.0) u = next_double();
    return -mean * std::log(u);
  }

  bool next_bool(double probability_true = 0.5) {
    return next_double() < probability_true;
  }

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = next_below(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Independent child generator; distinct streams for sub-components.
  Rng fork() { return Rng(next_u64()); }

  /// Snapshot of the full engine state (for checkpointing).
  RngState state() const {
    RngState s;
    for (int i = 0; i < 4; ++i) s.word[i] = state_[i];
    return s;
  }

  /// Resume exactly where a state() snapshot left off.
  void set_state(const RngState& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s.word[i];
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace quartz
