// Deterministic, seedable randomness for simulations.
//
// The simulator needs (a) per-node private randomness and (b) public shared
// randomness (the paper's protocols assume a broadcastable O(log² n)-bit seed;
// lower-bound arguments assume public coins). Both derive from a single run
// seed so every experiment is reproducible from one integer.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace hybrid {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, tiny state.
class rng {
 public:
  explicit rng(u64 seed) { reseed(seed); }

  void reseed(u64 seed);

  // next() and next_below() are defined here so the per-item draw loops
  // (gossip, sampling, workload generation) inline them.
  u64 next() {
    const u64 result = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) via Lemire's unbiased multiply-shift rejection.
  u64 next_below(u64 bound) {
    HYB_REQUIRE(bound > 0, "next_below needs a positive bound");
    u64 x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    u64 l = static_cast<u64>(m);
    if (l < bound) {
      const u64 threshold = (~bound + 1) % bound;
      while (l < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<u64>(m);
      }
    }
    return static_cast<u64>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with success probability p.
  bool next_bool(double p);

  /// Uniform in [lo, hi] inclusive; requires lo <= hi.
  u64 next_in(u64 lo, u64 hi);

  /// Fisher–Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (u64 i = v.size(); i > 1; --i) {
      u64 j = next_below(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample m distinct values from [0, n) (m <= n), in random order.
  std::vector<u32> sample_without_replacement(u32 n, u32 m);

 private:
  static constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
  u64 s_[4];
};

namespace detail {
/// One SplitMix64 step: advance the counter `x`, return its finalized value.
constexpr u64 splitmix64(u64& x) {
  x += 0x9e3779b97f4a7c15ULL;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace detail

/// Derive a child seed from (seed, stream) — used to give every node and
/// every protocol phase an independent stream. SplitMix64 finalizer.
/// Defined here because the fault stream (sim/fault.hpp) calls it once per
/// drop decision.
constexpr u64 derive_seed(u64 seed, u64 stream) {
  u64 x = seed ^ (0x510e527fade682d1ULL * (stream + 1));
  return detail::splitmix64(x);
}

}  // namespace hybrid
