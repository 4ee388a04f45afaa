#ifndef CHAINSFORMER_UTIL_RNG_H_
#define CHAINSFORMER_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace chainsformer {

/// SplitMix64's step-and-finalize: the first value a SplitMix64 generator
/// seeded with `x` returns. A bijection on 64-bit values, so distinct inputs
/// never collide, yet the outputs look nothing like the inputs (trace ids
/// from a counter, cache shards and ring positions from weak keys).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic 64-bit PRNG (xoshiro256**) seeded via SplitMix64.
///
/// All stochastic components in the library take an explicit seed (directly
/// or through an Rng&) so that every experiment is reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, 1).
  double Uniform();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with the given mean / standard deviation.
  double Normal(double mean, double stddev);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle of v.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples an index from a (non-negative, not necessarily normalized)
  /// weight vector. Requires at least one positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Returns a new Rng deterministically derived from this one; advancing
  /// the child never affects the parent stream.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace chainsformer

#endif  // CHAINSFORMER_UTIL_RNG_H_
