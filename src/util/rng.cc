#include "util/rng.h"

#include <cassert>
#include <cstdint>

namespace tpm {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  assert(bound > 0);
  // Lemire's multiply-shift with rejection to remove modulo bias.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -mean * std::log(u);
}

uint32_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-mean);
    double product = NextDouble();
    uint32_t count = 0;
    while (product > limit) {
      ++count;
      product *= NextDouble();
    }
    return count;
  }
  // Normal approximation with continuity correction keeps sampling O(1).
  double v = Normal(mean, std::sqrt(mean)) + 0.5;
  if (v < 0.0) return 0;
  // A draw past the largest count (a huge or infinite mean) saturates
  // instead of overflowing the cast.
  if (!(v < static_cast<double>(UINT32_MAX))) return UINT32_MAX;
  return static_cast<uint32_t>(v);
}

double Rng::Normal(double mean, double stddev) {
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 == 0.0);
  const double u2 = NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * 3.14159265358979323846 * u2);
  return mean + stddev * z;
}

ZipfSampler::ZipfSampler(uint64_t n, double theta) : n_(n), theta_(theta) {
  assert(n >= 1);
  assert(theta >= 0.0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -theta));
}

double ZipfSampler::H(double x) const {
  // Integral of x^-theta; log for theta == 1.
  if (theta_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - theta_) - 1.0) / (1.0 - theta_);
}

double ZipfSampler::HInverse(double x) const {
  if (theta_ == 1.0) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - theta_), 1.0 / (1.0 - theta_));
}

uint64_t ZipfSampler::Sample(Rng* rng) const {
  if (n_ == 1) return 0;
  if (theta_ == 0.0) return rng->Uniform(n_);
  while (true) {
    const double u = h_n_ + rng->NextDouble() * (h_x1_ - h_n_);
    const double x = HInverse(u);
    double k = std::floor(x + 0.5);
    // Guard against floating-point excursions outside [1, n].
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
    if (k - x <= s_) {
      return static_cast<uint64_t>(k) - 1;
    }
    if (u >= H(k + 0.5) - std::pow(k, -theta_)) {
      return static_cast<uint64_t>(k) - 1;
    }
  }
}

}  // namespace tpm
