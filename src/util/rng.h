// Deterministic random number generation for the data generators.
//
// All randomized components in this library take an explicit 64-bit seed so
// that every experiment is exactly reproducible. The core generator is
// xoshiro256**, seeded via SplitMix64 (the recommended pairing).

#pragma once


#include <cmath>
#include <cstdint>
#include <vector>

namespace tpm {

/// SplitMix64 step: turns an arbitrary seed into a well-mixed stream.
/// Advances *state and returns the next value.
uint64_t SplitMix64(uint64_t* state);

/// \brief xoshiro256** PRNG: fast, high-quality, 256-bit state.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can be fed to
/// std::shuffle etc., but the convenience members below avoid libstdc++
/// distribution objects whose output is not pinned across versions.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  uint64_t Next();
  result_type operator()() { return Next(); }

  /// Uniform integer in [0, bound) using Lemire's unbiased method. bound > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64 to stay O(1)), saturating at UINT32_MAX.
  uint32_t Poisson(double mean);

  /// Standard normal via Box-Muller.
  double Normal(double mean, double stddev);

 private:
  uint64_t s_[4];
};

/// \brief Zipf(θ) sampler over {0, ..., n-1}: rank-0 is the most popular item.
///
/// Uses the rejection-inversion method of Hörmann & Derflinger, O(1) per
/// sample after O(1) setup; exact for any theta > 0, theta != 1 handled too.
class ZipfSampler {
 public:
  /// \param n number of items (>= 1)
  /// \param theta skew; 0 = uniform, ~0.8-1.2 typical for realistic skew.
  ZipfSampler(uint64_t n, double theta);

  /// Draws one rank in [0, n).
  uint64_t Sample(Rng* rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double theta_;
  double h_x1_;
  double h_n_;
  double s_;
};

/// Fisher-Yates shuffle driven by Rng (deterministic across platforms,
/// unlike std::shuffle whose algorithm is unspecified).
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng->Uniform(i));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

}  // namespace tpm

