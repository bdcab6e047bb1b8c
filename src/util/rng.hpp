#pragma once

/// \file rng.hpp
/// Deterministic random number generation for the dsouth library.
///
/// The paper's artifact used MKL random number generators to produce initial
/// guesses and right-hand sides. This repository has no MKL, and — more
/// importantly — needs bit-reproducible experiments, so all randomness comes
/// from this self-contained xoshiro256** generator seeded via SplitMix64, or
/// from stateless keyed draws over the same SplitMix64 avalanche (per-message
/// faults and delivery delays). Every experiment in bench/ documents the seed
/// it uses.

#include <cstdint>
#include <span>
#include <vector>

namespace dsouth::util {

/// Golden-ratio increment of the SplitMix64 sequence.
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 output function (public-domain algorithm by Sebastiano
/// Vigna): the one avalanche behind every seeded draw in the library —
/// the xoshiro seeding below and the stateless keyed draws.
inline std::uint64_t splitmix64(std::uint64_t z) {
  z += kSplitMixGamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64 generator: used to expand a single 64-bit seed into the
/// xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    const std::uint64_t z = state_;
    state_ += kSplitMixGamma;
    return splitmix64(z);
  }

 private:
  std::uint64_t state_;
};

/// Stateless keyed draw: a 64-bit hash of (seed, salt, epoch, src, dst,
/// seq). Fault injection (src/faults) and the runtime's fabric clock
/// (simmpi::fabric_deliver_epoch) key every per-message draw this way, so
/// a draw depends on nothing but its key — not on call order, not on
/// which other messages were drawn, dropped or staged by another thread.
/// Each consumer uses its own `salt`, which makes its draws independent
/// of every other consumer's; `lane` splits one draw into independent
/// sub-draws (lane 0 hashes exactly like the six-argument key).
inline std::uint64_t keyed_draw(std::uint64_t seed, std::uint64_t salt,
                                std::uint64_t epoch, int src, int dst,
                                std::uint64_t seq, std::uint64_t lane = 0) {
  std::uint64_t h = splitmix64(seed ^ salt);
  h = splitmix64(h ^ epoch);
  h = splitmix64(
      h ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst)));
  h = splitmix64(h ^ seq);
  if (lane != 0) h = splitmix64(h ^ lane);
  return h;
}

/// Map a 64-bit draw to a uniform double in [0, 1) (its 53 high bits).
inline double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// xoshiro256**: fast, high-quality 64-bit PRNG (public domain, Blackman &
/// Vigna). Deterministic across platforms; satisfies the C++ named
/// requirement UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x8f2d1a4be37c9d51ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal();

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Fill with uniform values in [lo, hi).
  void fill_uniform(std::span<double> values, double lo, double hi);

 private:
  std::uint64_t s_[4];
};

}  // namespace dsouth::util
