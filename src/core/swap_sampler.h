#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/prng.h"

namespace krr {

/// Stack-update strategy: how the per-access set of swap positions is
/// sampled. All three realize the *same* stochastic process — position i in
/// [2, phi-1] is independently a swap with probability 1 - stay(i),
/// positions 1 and phi always swap — and differ only in cost:
///  * kLinear   — Mattson's scan, one Bernoulli draw per position: O(phi)
///                per access ("Basic Stack" in Table 5.3);
///  * kTopDown  — Algorithm 1: recursive interval splitting, expected
///                O(K log^2 M) per access;
///  * kBackward — Algorithm 2: inverse-CDF walk from phi toward the top,
///                expected O(K log M) per access.
enum class UpdateStrategy : std::uint8_t {
  kLinear = 0,
  kTopDown = 1,
  kBackward = 2,
};

std::string to_string(UpdateStrategy strategy);

/// Which K-LRU sampling convention the stack models (Chapter 3):
///  * kPlacingBack — sampling with replacement (Proposition 1, Redis's
///    convention): stay(i) = ((i-1)/i)^K;
///  * kNoPlacingBack — sampling without replacement (Proposition 2, the
///    "few tweaks" the paper mentions): the rank-i resident of a cache of
///    size i is evicted with probability K/i, so stay(i) = 1 - K/i, and
///    every position i <= K always swaps.
/// Both stay functions telescope, so the same three update strategies
/// apply; the derived per-object eviction law reproduces the matching
/// proposition exactly (verified by tests).
enum class SamplingModel : std::uint8_t {
  kPlacingBack = 0,
  kNoPlacingBack = 1,
};

std::string to_string(SamplingModel model);

/// r^(1/K) without a transcendental call, for the r in (0, 1] that the
/// backward walk draws, from tables built once per exponent K. Writing
/// r = 2^-e * m with m in [1, 2) and c_j the midpoint of m's bin among
/// 256 (the top 8 mantissa bits),
///   r^(1/K) = 2^(-e/K) * c_j^(1/K) * (1 + u)^(1/K),  u = m/c_j - 1,
/// and |u| < 1/512, so four binomial terms leave a truncation error below
/// 0.2 * 512^-5 ~ 6e-15 for every K >= 1. With the table entries and the
/// arithmetic (a few ulps) the relative error stays below kMaxRelError.
class TableRoot {
 public:
  explicit TableRoot(double inv_k);

  /// Bound on |value - r^(1/K)| / r^(1/K) for r in [2^-63, 2).
  static constexpr double kMaxRelError = 1e-14;

  /// Approximate r^(1/K), or -1 when r is outside [2^-63, 2) (zero, NaN,
  /// negative, too large or too small for the exponent table).
  double operator()(double r) const noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(r);
    const std::uint64_t e = 1023 - (bits >> 52);  // wraps for r >= 2 or sign set
    if (e >= exp_.size()) return -1.0;
    const std::size_t j = (bits >> 44) & 0xff;
    const double m = std::bit_cast<double>((bits & kMantissaMask) | kOneBits);
    const double u = m * inv_mid_[j] - 1.0;
    return exp_[e] * root_mid_[j] * (1.0 + u * (c1_ + u * (c2_ + u * (c3_ + u * c4_))));
  }

 private:
  static constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;
  static constexpr std::uint64_t kOneBits = std::uint64_t{1023} << 52;

  std::array<double, 64> exp_;        // 2^(-e/K)
  std::array<double, 256> root_mid_;  // c_j^(1/K)
  std::array<double, 256> inv_mid_;   // 1 / c_j
  double c1_, c2_, c3_, c4_;          // binomial series of (1+u)^(1/K)
};

/// Samples the swap chain for one stack update.
class SwapSampler {
 public:
  /// k is the KRR exponent (may be fractional after the K' correction);
  /// must be >= 1.
  SwapSampler(UpdateStrategy strategy, double k,
              SamplingModel model = SamplingModel::kPlacingBack);

  /// Fills `out` with the ascending swap chain for a reference at stack
  /// distance phi: out.front() == 1 and out.back() == phi for phi >= 2;
  /// for phi == 1 the chain is just {1} (no movement).
  ///
  /// Applying the update means rotating along the chain: the object at
  /// chain[j] moves to chain[j+1], and the referenced object lands at 1.
  void sample(std::uint64_t phi, Xoshiro256ss& rng, std::vector<std::uint64_t>& out) const;

  UpdateStrategy strategy() const noexcept { return strategy_; }
  SamplingModel model() const noexcept { return model_; }
  double k() const noexcept { return k_; }

  /// Probability that position i keeps its resident during one update.
  double stay_probability(std::uint64_t i) const;

  /// Probability that positions a..b (inclusive) all keep their residents
  /// during one update (the telescoped product of stay probabilities).
  /// Exposed for tests and for the top-down recursion.
  double no_swap_probability(std::uint64_t a, std::uint64_t b) const;

  /// Expected number of swap positions for a reference at distance phi
  /// (Corollary 1); used by the overhead model in bench_fig5_4.
  double expected_swaps(std::uint64_t phi) const;

  /// Algorithm 2's walk from phi toward the top: calls visit(x) for each
  /// swap position below phi, descending, ending with 1. Draws exactly
  /// what sample() draws for the backward strategy, so a caller can use
  /// the chain as it is named instead of sorting it first.
  template <typename Visit>
  void walk_backward(std::uint64_t phi, Xoshiro256ss& rng, Visit&& visit) const {
    for (std::uint64_t i = phi; i > 1;) {
      i = previous_swap(i, rng.next_double_open0());
      visit(i);
    }
  }

  /// Largest swap position below boundary i, for r in (0, 1]: the inverse
  /// CDF of P(X <= x) = no_swap_probability(x+1, i-1), one step of the
  /// backward walk (Algorithm 2). Under placing back the answer is always
  /// ceil(pow(r, 1/K) * (i-1)) clamped to [1, i-1]; it comes from the
  /// table root when certified_previous_swap() can vouch for it, else
  /// from that expression itself.
  std::uint64_t previous_swap(std::uint64_t i, double r) const;

  /// previous_swap() from the table root alone: the exact answer, or 0 when
  /// the root lands within the certification margin of an integer step
  /// (or the model is not placing back), where only pow() can decide.
  std::uint64_t certified_previous_swap(std::uint64_t i, double r) const noexcept;

  /// Relative margin around the table root inside which certification
  /// must find no integer crossing; far above TableRoot::kMaxRelError.
  static constexpr double kCertifyMargin = 1e-9;

 private:
  void sample_linear(std::uint64_t phi, Xoshiro256ss& rng,
                     std::vector<std::uint64_t>& out) const;
  void sample_top_down(std::uint64_t phi, Xoshiro256ss& rng,
                       std::vector<std::uint64_t>& out) const;
  void sample_backward(std::uint64_t phi, Xoshiro256ss& rng,
                       std::vector<std::uint64_t>& out) const;

  /// The exact inverse: ceil(pow(r, 1/K) * (i-1)) under placing back, a
  /// binary search over the CDF otherwise.
  std::uint64_t exact_previous_swap(std::uint64_t i, double r) const;

  UpdateStrategy strategy_;
  SamplingModel model_;
  double k_;
  double inv_k_;
  TableRoot root_;
};

inline std::uint64_t SwapSampler::certified_previous_swap(std::uint64_t i,
                                                          double r) const noexcept {
  // Up to 2^53 every integer below is exact in a double and the int64
  // conversions (single instructions, unlike the unsigned ones) are safe.
  if (model_ != SamplingModel::kPlacingBack || i > (std::uint64_t{1} << 53)) return 0;
  const double root = root_(r);
  if (!(root > 0.0)) return 0;
  // pow() and the table both sit within a few 1e-15 of r^(1/K), so the
  // exact expression lies in [lo, hi] = root * (1 -/+ margin) * (i-1).
  // When no integer lies in that window, ceil() of the exact expression
  // is floor(hi) + 1.
  // The margin multiplies the root first, off the i -> x dependency chain.
  const double below = static_cast<double>(static_cast<std::int64_t>(i - 1));
  const double lo = root * (1.0 - kCertifyMargin) * below;
  const auto floor_hi = static_cast<std::int64_t>(root * (1.0 + kCertifyMargin) * below);
  if (!(static_cast<double>(floor_hi) < lo)) return 0;
  const auto x = static_cast<std::uint64_t>(floor_hi) + 1;
  return x < i ? x : 0;  // the exact path owns the clamp to i-1
}

inline std::uint64_t SwapSampler::previous_swap(std::uint64_t i, double r) const {
  const std::uint64_t x = certified_previous_swap(i, r);
  return x != 0 ? x : exact_previous_swap(i, r);
}

}  // namespace krr
