// Seeded random number generation.
//
// Every stochastic component in the library receives an explicit `Rng&` so
// that simulations are reproducible and tests are deterministic (no global
// generator state, see Core Guidelines I.2).
#ifndef QS_COMMON_RNG_H
#define QS_COMMON_RNG_H

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/require.h"

namespace qs {

/// Deterministically derives the seed of the `stream`-th child RNG stream
/// from a root seed (splitmix64 finalizer). A pure function of
/// (root, stream): parallel workloads that assign stream indices by task
/// get bitwise-reproducible results regardless of scheduling or thread
/// count.
inline std::uint64_t split_seed(std::uint64_t root, std::uint64_t stream) {
  std::uint64_t z = root + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Version of the stream `Rng` draws. Journals record it (`H rng=`) so a
/// replay under another stream fails by name instead of by byte diff.
/// Version 1 was the standard library's 64-bit Mersenne Twister and
/// libstdc++'s distributions.
inline constexpr int kRngStreamVersion = 2;

/// Counter-based generator: draw i of `Rng(s)` is `split_seed(s, i)`, so
/// every draw is a pure function of (seed, draw index) and building one
/// costs two stores. The distributions are defined here, not by the
/// standard library, so every draw except `normal`/`complex_normal`
/// (which call libm) is bit-identical on every toolchain. Copyable;
/// copies evolve independently.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : seed_(seed) {}

  /// Uniform double in [0, 1): the top 53 bits of one draw.
  double uniform() { return static_cast<double>(draw_seed() >> 11) * 0x1p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal sample (Box-Muller; two draws, the sine half unused
  /// so the generator stays stateless between calls).
  double normal() {
    const double u = static_cast<double>((draw_seed() >> 11) + 1) * 0x1p-53;
    const double v = uniform();
    constexpr double two_pi = 6.28318530717958647692;
    return std::sqrt(-2.0 * std::log(u)) * std::cos(two_pi * v);
  }

  /// Normal sample with the given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Uniform integer in [0, n-1]. Requires n > 0.
  std::size_t index(std::size_t n) {
    require(n > 0, "Rng::index: n must be positive");
    return static_cast<std::size_t>(below(n));
  }

  /// Uniform integer in [lo, hi] inclusive.
  int integer(int lo, int hi) {
    require(lo <= hi, "Rng::integer: empty range");
    const std::uint64_t span =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) - lo) + 1;
    return static_cast<int>(lo + static_cast<std::int64_t>(below(span)));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Complex sample with independent N(0, 1/sqrt(2)) real/imag parts, so
  /// that E[|z|^2] = 1. Used for Haar-random unitary construction.
  std::complex<double> complex_normal() {
    constexpr double inv_sqrt2 = 0.70710678118654752440;
    return {normal() * inv_sqrt2, normal() * inv_sqrt2};
  }

  /// Samples an index from an (unnormalized, nonnegative) weight vector.
  std::size_t discrete(const std::vector<double>& weights) {
    require(!weights.empty(), "Rng::discrete: empty weights");
    double total = 0.0;
    for (double w : weights) total += w;
    require(total > 0.0, "Rng::discrete: weights sum to zero");
    double r = uniform() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (r < acc) return i;
    }
    return weights.size() - 1;  // numerical edge: return last bin
  }

  /// Fisher-Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[index(i)]);
    }
  }

  /// Draws a raw 64-bit word (e.g. a root seed for split_seed streams).
  std::uint64_t draw_seed() { return split_seed(seed_, counter_++); }

 private:
  /// Unbiased uniform integer in [0, n) for n > 0: Lemire's
  /// multiply-shift, rejecting the (2^64 mod n) low products that would
  /// over-represent some outputs.
  std::uint64_t below(std::uint64_t n) {
    unsigned __int128 m = static_cast<unsigned __int128>(draw_seed()) * n;
    if (static_cast<std::uint64_t>(m) < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (static_cast<std::uint64_t>(m) < threshold)
        m = static_cast<unsigned __int128>(draw_seed()) * n;
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

static_assert(sizeof(Rng) == 16, "Rng is a (seed, counter) pair");

}  // namespace qs

#endif  // QS_COMMON_RNG_H
