#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace dsouth::util {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  return unit_interval(next_u64());
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  DSOUTH_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  // Box–Muller; draw u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - next_double();
  double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  DSOUTH_CHECK(k <= n);
  // Partial Fisher–Yates over an index vector.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

void Rng::fill_uniform(std::span<double> values, double lo, double hi) {
  for (auto& v : values) v = uniform(lo, hi);
}

}  // namespace dsouth::util
