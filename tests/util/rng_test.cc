#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace tpm {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(99);
  const int kBuckets = 10;
  const int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.Uniform(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kSamples), 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(17);
  double sum = 0;
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / kSamples, 5.0, 0.25);
}

TEST(RngTest, PoissonMeanConverges) {
  Rng rng(19);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0;
    const int kSamples = 20000;
    for (int i = 0; i < kSamples; ++i) sum += rng.Poisson(mean);
    EXPECT_NEAR(sum / kSamples, mean, std::max(0.1, mean * 0.05));
  }
  EXPECT_EQ(rng.Poisson(0.0), 0u);
  // Past the largest count the draw saturates instead of overflowing.
  EXPECT_EQ(rng.Poisson(1e12), UINT32_MAX);
  EXPECT_EQ(rng.Poisson(std::numeric_limits<double>::infinity()), UINT32_MAX);
}

TEST(RngTest, NormalMoments) {
  Rng rng(23);
  const int kSamples = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < kSamples; ++i) {
    double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(ZipfSamplerTest, UniformWhenThetaZero) {
  Rng rng(29);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(ZipfSamplerTest, SkewPrefersLowRanks) {
  Rng rng(31);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(&rng)];
  // Rank 0 much more popular than rank 99; ratio ~ (100/1)^theta = 100.
  EXPECT_GT(counts[0], counts[99] * 20);
  // Monotone-ish head.
  EXPECT_GT(counts[0], counts[4]);
}

TEST(ZipfSamplerTest, SingleItem) {
  Rng rng(37);
  ZipfSampler zipf(1, 1.2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(&rng), 0u);
}

TEST(ZipfSamplerTest, BoundsRespected) {
  Rng rng(41);
  for (double theta : {0.2, 0.8, 1.0, 1.5}) {
    ZipfSampler zipf(17, theta);
    for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf.Sample(&rng), 17u);
  }
}

TEST(ShuffleTest, PermutesDeterministically) {
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  Rng rng(43);
  Shuffle(&v, &rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);

  std::vector<int> v2(20);
  std::iota(v2.begin(), v2.end(), 0);
  Rng rng2(43);
  Shuffle(&v2, &rng2);
  EXPECT_EQ(v, v2);
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  uint64_t state = 0;
  const uint64_t a = SplitMix64(&state);
  const uint64_t b = SplitMix64(&state);
  EXPECT_NE(a, b);
  uint64_t state2 = 0;
  EXPECT_EQ(SplitMix64(&state2), a);
}

}  // namespace
}  // namespace tpm
