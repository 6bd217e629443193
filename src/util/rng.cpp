#include "util/rng.hpp"

#include "util/assert.hpp"

namespace hybrid {

void rng::reseed(u64 seed) {
  u64 x = seed;
  for (auto& s : s_) s = detail::splitmix64(x);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double rng::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

u64 rng::next_in(u64 lo, u64 hi) {
  HYB_REQUIRE(lo <= hi, "empty range");
  return lo + next_below(hi - lo + 1);
}

std::vector<u32> rng::sample_without_replacement(u32 n, u32 m) {
  HYB_REQUIRE(m <= n, "cannot sample more elements than available");
  // Partial Fisher–Yates on an index array; O(n) memory, fine at sim scales.
  std::vector<u32> idx(n);
  for (u32 i = 0; i < n; ++i) idx[i] = i;
  for (u32 i = 0; i < m; ++i) {
    u32 j = i + static_cast<u32>(next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(m);
  return idx;
}

}  // namespace hybrid
