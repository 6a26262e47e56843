#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/krr_stack.h"
#include "core/swap_sampler.h"
#include "util/prng.h"

namespace krr {
namespace {

class SwapSamplerStrategies : public ::testing::TestWithParam<UpdateStrategy> {};

TEST_P(SwapSamplerStrategies, ChainIsAscendingAndBracketed) {
  SwapSampler sampler(GetParam(), 3.0);
  Xoshiro256ss rng(1);
  std::vector<std::uint64_t> chain;
  for (std::uint64_t phi : {2ULL, 3ULL, 10ULL, 257ULL, 1024ULL}) {
    for (int rep = 0; rep < 200; ++rep) {
      sampler.sample(phi, rng, chain);
      ASSERT_GE(chain.size(), 2u);
      EXPECT_EQ(chain.front(), 1u);
      EXPECT_EQ(chain.back(), phi);
      for (std::size_t j = 1; j < chain.size(); ++j) {
        ASSERT_LT(chain[j - 1], chain[j]) << "phi=" << phi;
      }
    }
  }
}

TEST_P(SwapSamplerStrategies, PhiOneYieldsTrivialChain) {
  SwapSampler sampler(GetParam(), 2.0);
  Xoshiro256ss rng(2);
  std::vector<std::uint64_t> chain;
  sampler.sample(1, rng, chain);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0], 1u);
}

TEST_P(SwapSamplerStrategies, PhiTwoHasNoInteriorPositions) {
  SwapSampler sampler(GetParam(), 5.0);
  Xoshiro256ss rng(3);
  std::vector<std::uint64_t> chain;
  for (int rep = 0; rep < 100; ++rep) {
    sampler.sample(2, rng, chain);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0], 1u);
    EXPECT_EQ(chain[1], 2u);
  }
}

// Each interior position i must be a swap with probability 1-((i-1)/i)^K,
// independently — verified against the marginal with 5-sigma tolerance.
TEST_P(SwapSamplerStrategies, MarginalSwapProbabilityMatchesTheLaw) {
  constexpr std::uint64_t kPhi = 32;
  constexpr double kK = 4.0;
  constexpr int kTrials = 60000;
  SwapSampler sampler(GetParam(), kK);
  Xoshiro256ss rng(7);
  std::vector<std::uint64_t> chain;
  std::vector<int> swap_count(kPhi + 1, 0);
  for (int t = 0; t < kTrials; ++t) {
    sampler.sample(kPhi, rng, chain);
    for (std::uint64_t v : chain) ++swap_count[v];
  }
  for (std::uint64_t i = 2; i < kPhi; ++i) {
    const double p = 1.0 - std::pow(static_cast<double>(i - 1) / static_cast<double>(i), kK);
    const double observed = static_cast<double>(swap_count[i]) / kTrials;
    const double sigma = std::sqrt(p * (1.0 - p) / kTrials);
    EXPECT_NEAR(observed, p, 5.0 * sigma) << "position " << i;
  }
  EXPECT_EQ(swap_count[1], kTrials);
  EXPECT_EQ(swap_count[kPhi], kTrials);
}

// Pairwise-joint check: the largest interior swap position's distribution
// is the eviction law of Eq. 4.2 restricted to a cache boundary. For a
// boundary C < phi, the resident crossing out of prefix [1, C] is the
// largest swap <= C, with P(cross at i) = (i^K - (i-1)^K)/C^K.
TEST_P(SwapSamplerStrategies, CrossingLawMatchesEquation42) {
  constexpr std::uint64_t kPhi = 64;
  constexpr std::uint64_t kBoundary = 24;
  constexpr double kK = 3.0;
  constexpr int kTrials = 60000;
  SwapSampler sampler(GetParam(), kK);
  Xoshiro256ss rng(11);
  std::vector<std::uint64_t> chain;
  std::vector<int> crossing(kBoundary + 1, 0);
  for (int t = 0; t < kTrials; ++t) {
    sampler.sample(kPhi, rng, chain);
    std::uint64_t largest = 1;
    for (std::uint64_t v : chain) {
      if (v <= kBoundary) largest = v;
    }
    ++crossing[largest];
  }
  const double ck = std::pow(static_cast<double>(kBoundary), kK);
  for (std::uint64_t i = 1; i <= kBoundary; ++i) {
    const double p = (std::pow(static_cast<double>(i), kK) -
                      std::pow(static_cast<double>(i - 1), kK)) /
                     ck;
    const double observed = static_cast<double>(crossing[i]) / kTrials;
    const double sigma = std::sqrt(p * (1.0 - p) / kTrials);
    EXPECT_NEAR(observed, p, 5.0 * sigma + 1e-12) << "position " << i;
  }
}

// Corollary 1: the mean chain length matches the analytic expectation.
TEST_P(SwapSamplerStrategies, MeanChainLengthMatchesExpectation) {
  constexpr std::uint64_t kPhi = 200;
  constexpr double kK = 5.0;
  constexpr int kTrials = 40000;
  SwapSampler sampler(GetParam(), kK);
  Xoshiro256ss rng(13);
  std::vector<std::uint64_t> chain;
  double total = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    sampler.sample(kPhi, rng, chain);
    total += static_cast<double>(chain.size());
  }
  EXPECT_NEAR(total / kTrials, sampler.expected_swaps(kPhi), 0.15);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SwapSamplerStrategies,
                         ::testing::Values(UpdateStrategy::kLinear,
                                           UpdateStrategy::kTopDown,
                                           UpdateStrategy::kBackward),
                         [](const auto& info) { return to_string(info.param); });

TEST(SwapSampler, RejectsExponentBelowOne) {
  EXPECT_THROW(SwapSampler(UpdateStrategy::kBackward, 0.9), std::invalid_argument);
}

TEST(SwapSampler, RejectsPhiZero) {
  SwapSampler sampler(UpdateStrategy::kBackward, 2.0);
  Xoshiro256ss rng(1);
  std::vector<std::uint64_t> chain;
  EXPECT_THROW(sampler.sample(0, rng, chain), std::invalid_argument);
}

TEST(SwapSampler, NoSwapProbabilityTelescopes) {
  SwapSampler sampler(UpdateStrategy::kBackward, 3.0);
  // P(no swap in [a,b]) must equal the product of per-position stays.
  double product = 1.0;
  for (std::uint64_t i = 5; i <= 20; ++i) product *= sampler.no_swap_probability(i, i);
  EXPECT_NEAR(sampler.no_swap_probability(5, 20), product, 1e-12);
  EXPECT_DOUBLE_EQ(sampler.no_swap_probability(7, 6), 1.0);  // empty interval
}

TEST(SwapSampler, ExpectedSwapsGrowsLogarithmically) {
  SwapSampler sampler(UpdateStrategy::kBackward, 1.0);
  // For K=1, E[swaps] = 2 + sum_{i=2}^{phi-1} 1/i ~ ln(phi) + 1.
  const double e1k = sampler.expected_swaps(1000);
  EXPECT_NEAR(e1k, 2.0 + std::log(999.0) - std::log(2.0) + 0.5, 0.6);
  // Doubling phi adds ~K*ln(2).
  SwapSampler k4(UpdateStrategy::kBackward, 4.0);
  const double delta = k4.expected_swaps(2000) - k4.expected_swaps(1000);
  EXPECT_NEAR(delta, 4.0 * std::log(2.0), 0.1);
}

TEST(SwapSampler, StrategyNamesAreStable) {
  EXPECT_EQ(to_string(UpdateStrategy::kLinear), "linear");
  EXPECT_EQ(to_string(UpdateStrategy::kTopDown), "top_down");
  EXPECT_EQ(to_string(UpdateStrategy::kBackward), "backward");
}

// The inverse-CDF step the table root must reproduce bit for bit: the
// std::pow expression of Algorithm 2 under placing back.
std::uint64_t pow_previous_swap(double root, std::uint64_t i) {
  std::uint64_t x = static_cast<std::uint64_t>(std::ceil(root * static_cast<double>(i - 1)));
  if (x < 1) x = 1;
  if (x >= i) x = i - 1;
  return x;
}

class SwapSamplerEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(SwapSamplerEquivalence, TableRootIsWithinItsErrorBound) {
  // Uniform draws almost never reach the deep exponents, so sweep every
  // exponent-table entry explicitly: r = m * 2^-e, m in [1, 2).
  // (e = 0 also covers r in (1, 2), which draws never produce.)
  const double k = GetParam();
  const TableRoot root(1.0 / k);
  Xoshiro256ss rng(5);
  double max_rel = 0.0;
  for (int e = 0; e <= 63; ++e) {
    for (int n = 0; n < 4000; ++n) {
      const double r = std::ldexp(1.0 + rng.next_double(), -e);
      const double exact = std::pow(r, 1.0 / k);
      max_rel = std::max(max_rel, std::fabs(root(r) - exact) / exact);
    }
  }
  EXPECT_DOUBLE_EQ(root(1.0), 1.0);
  EXPECT_LT(max_rel, TableRoot::kMaxRelError);
  // Outside [2^-63, 2) the root declines instead of guessing.
  for (const double r : {0.0, -0.5, 2.0, std::ldexp(1.0, -64), std::nan("")}) {
    EXPECT_LT(root(r), 0.0) << r;
  }
}

TEST_P(SwapSamplerEquivalence, MatchesPowOnRandomDraws) {
  const double k = GetParam();
  const SwapSampler sampler(UpdateStrategy::kBackward, k);
  Xoshiro256ss rng(17);
  constexpr int kDraws = 10'000'000;
  std::uint64_t shallow = 0, shallow_fallbacks = 0;
  for (int n = 0; n < kDraws; ++n) {
    // Boundaries spread over every bit width up to 2^32.
    const std::uint64_t width = std::uint64_t{1} << (1 + rng.next_below(32));
    const std::uint64_t i = 2 + rng.next_below(width - 1);
    const double r = rng.next_double_open0();
    const std::uint64_t expected = pow_previous_swap(std::pow(r, 1.0 / k), i);
    ASSERT_EQ(sampler.previous_swap(i, r), expected) << "i=" << i << " r=" << r;
    const std::uint64_t certified = sampler.certified_previous_swap(i, r);
    if (certified != 0) {
      ASSERT_EQ(certified, expected) << "i=" << i << " r=" << r;
    }
    if (i <= (1u << 20)) {
      ++shallow;
      shallow_fallbacks += certified == 0 ? 1 : 0;
    }
  }
  // The margin only catches draws within ~1e-9 * i of a step: at stack
  // depths up to 2^20 that is at most ~0.2% of steps.
  EXPECT_LT(static_cast<double>(shallow_fallbacks), 2e-3 * static_cast<double>(shallow));
}

TEST_P(SwapSamplerEquivalence, BoundaryDrawsFallBackToPow) {
  // r = (x/(i-1))^K puts the scaled root on the integer x itself (up to
  // rounding), where only the exact expression can decide the ceiling; its
  // nextafter neighbours straddle that decision.
  const double k = GetParam();
  const SwapSampler sampler(UpdateStrategy::kBackward, k);
  Xoshiro256ss rng(23);
  std::uint64_t boundaries = 0;
  for (const std::uint64_t i : {2ULL, 3ULL, 10ULL, 1000ULL, 123457ULL,
                                (1ULL << 20) + 7, (1ULL << 32)}) {
    std::vector<std::uint64_t> xs = {1, i - 1};
    for (int n = 0; n < 200 && i > 3; ++n) xs.push_back(1 + rng.next_below(i - 1));
    for (const std::uint64_t x : xs) {
      const double on_step =
          std::pow(static_cast<double>(x) / static_cast<double>(i - 1), k);
      if (on_step == 0.0) continue;  // underflow: no draw can be that small
      ++boundaries;
      EXPECT_EQ(sampler.certified_previous_swap(i, on_step), 0u)
          << "fallback did not fire at i=" << i << " x=" << x;
      for (const double r : {std::nextafter(on_step, 0.0), on_step,
                             std::min(1.0, std::nextafter(on_step, 2.0))}) {
        const std::uint64_t expected = pow_previous_swap(std::pow(r, 1.0 / k), i);
        EXPECT_EQ(sampler.previous_swap(i, r), expected) << "i=" << i << " r=" << r;
        const std::uint64_t certified = sampler.certified_previous_swap(i, r);
        if (certified != 0) {
          EXPECT_EQ(certified, expected) << "i=" << i << " r=" << r;
        }
      }
    }
    // The extremes of next_double_open0(): 2^-53 and 1.
    for (const double r : {std::ldexp(1.0, -53), 1.0}) {
      EXPECT_EQ(sampler.previous_swap(i, r), pow_previous_swap(std::pow(r, 1.0 / k), i))
          << "i=" << i << " r=" << r;
    }
    EXPECT_EQ(sampler.certified_previous_swap(i, 1.0), 0u) << "i=" << i;
  }
  EXPECT_GT(boundaries, 1000u);
}

std::string exponent_name(const ::testing::TestParamInfo<double>& info) {
  static const char* const kNames[] = {"k1", "k1_4", "k5_corrected", "k32"};
  return kNames[info.index];
}

INSTANTIATE_TEST_SUITE_P(Exponents, SwapSamplerEquivalence,
                         ::testing::Values(1.0, 1.4, corrected_k(5.0), 32.0),
                         exponent_name);

}  // namespace
}  // namespace krr
