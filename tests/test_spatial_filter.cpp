#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/spatial_filter.h"
#include "util/hashing.h"

namespace krr {
namespace {

TEST(SpatialFilter, ValidatesRate) {
  EXPECT_THROW(SpatialFilter(0.0), std::invalid_argument);
  EXPECT_THROW(SpatialFilter(-0.1), std::invalid_argument);
  EXPECT_THROW(SpatialFilter(1.1), std::invalid_argument);
  EXPECT_THROW(SpatialFilter(0.5, 0), std::invalid_argument);
}

TEST(SpatialFilter, RateOneSamplesEverything) {
  SpatialFilter f(1.0);
  for (std::uint64_t k = 0; k < 10000; ++k) EXPECT_TRUE(f.sampled(k));
  EXPECT_DOUBLE_EQ(f.rate(), 1.0);
  EXPECT_DOUBLE_EQ(f.scale(), 1.0);
}

TEST(SpatialFilter, TinyRateIsClampedToAtLeastOneSlot) {
  SpatialFilter f(1e-12, 1024);
  EXPECT_DOUBLE_EQ(f.rate(), 1.0 / 1024.0);
}

TEST(SpatialFilter, EmpiricalRateMatchesRequested) {
  for (double rate : {0.001, 0.01, 0.1, 0.5}) {
    SpatialFilter f(rate);
    constexpr std::uint64_t kKeys = 2000000;
    std::uint64_t sampled = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      if (f.sampled(k)) ++sampled;
    }
    const double observed = static_cast<double>(sampled) / kKeys;
    const double sigma = std::sqrt(f.rate() * (1 - f.rate()) / kKeys);
    EXPECT_NEAR(observed, f.rate(), 6.0 * sigma) << "rate " << rate;
  }
}

TEST(SpatialFilter, DecisionIsPerKeyStable) {
  SpatialFilter f(0.01);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(f.sampled(k), f.sampled(k));  // pure function of the key
  }
}

TEST(SpatialFilter, ScaleIsInverseRate) {
  SpatialFilter f(0.001);
  EXPECT_NEAR(f.scale() * f.rate(), 1.0, 1e-12);
}

TEST(AdaptiveSamplingRate, EnforcesMinimumObjects) {
  // Big working set: base rate already samples enough.
  EXPECT_DOUBLE_EQ(adaptive_sampling_rate(0.001, 100000000), 0.001);
  // Small working set: rate raised so that >= 8K objects are expected.
  EXPECT_DOUBLE_EQ(adaptive_sampling_rate(0.001, 16384), 0.5);
  // Tiny working set: capped at 1.
  EXPECT_DOUBLE_EQ(adaptive_sampling_rate(0.001, 100), 1.0);
  EXPECT_DOUBLE_EQ(adaptive_sampling_rate(0.001, 0), 1.0);
  // Custom floor.
  EXPECT_DOUBLE_EQ(adaptive_sampling_rate(0.001, 1000, 100), 0.1);
}

TEST(SpatialFilter, MaskEqualsModulo) {
  // Power-of-two moduli take the mask; the miniature simulator's prime
  // keeps the modulo. Either way the decision is hash64(key) % P < T.
  std::mt19937_64 rng(99);
  for (const std::uint64_t modulus :
       {std::uint64_t{1} << 24, std::uint64_t{1} << 10, std::uint64_t{16777213}}) {
    for (const double rate : {0.001, 0.3}) {
      const SpatialFilter f(rate, modulus);
      for (int i = 0; i < 1000000; ++i) {
        const std::uint64_t key = rng();
        ASSERT_EQ(f.sampled(key), hash64(key) % modulus < f.threshold())
            << "modulus " << modulus << " rate " << rate << " key " << key;
      }
    }
  }
}

}  // namespace
}  // namespace krr
