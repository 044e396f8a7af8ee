#ifndef LFO_UTIL_RNG_HPP
#define LFO_UTIL_RNG_HPP

#include <cstdint>
#include <limits>

namespace lfo::util {

/// Deterministic, seedable pseudo-random number generator.
///
/// Implements xoshiro256** seeded via splitmix64. All randomness in the
/// library flows through this type so that every experiment is exactly
/// reproducible from a single 64-bit seed (the paper evaluates seed
/// sensitivity explicitly, Fig 5c).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  // UniformRandomBitGenerator interface so Rng works with <random> adapters.
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses rejection
  /// sampling (Lemire) to avoid modulo bias.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (no cached spare; stateless per call
  /// apart from the generator state).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda);

  /// Pareto with scale xm (> 0) and shape alpha (> 0).
  double pareto(double xm, double alpha);

  /// Log-normal with parameters of the underlying normal.
  double lognormal(double mu, double sigma);

 private:
  std::uint64_t s_[4];
};

/// splitmix64 step; exposed because seeding helpers elsewhere use it.
std::uint64_t splitmix64(std::uint64_t& state);

/// The splitmix64 finalizer as a pure function of its input: a strong
/// mix that spreads dense ids (0..N-1) evenly over hash buckets.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace lfo::util

#endif  // LFO_UTIL_RNG_HPP
