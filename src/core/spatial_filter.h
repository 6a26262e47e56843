#pragma once

#include <cstdint>

#include "util/hashing.h"

namespace krr {

/// SHARDS-style uniform spatial sampling (§2.4): a reference to key L is
/// sampled iff hash(L) mod P < T. Because the decision is a pure function
/// of the key, either *all* references to an object are sampled or none
/// are, which preserves reuse behaviour within the sampled subset. The
/// effective sampling rate is R = T/P.
class SpatialFilter {
 public:
  static constexpr std::uint64_t kDefaultModulus = 1ULL << 24;

  /// rate in (0, 1]; the threshold is rounded to at least 1 so some keys
  /// always pass. rate == 1 samples everything.
  explicit SpatialFilter(double rate, std::uint64_t modulus = kDefaultModulus);

  /// Whether references to this key are part of the sample. A power-of-
  /// two modulus (the default 2^24) reduces the hash with a mask, which
  /// equals the modulo for such moduli and spares a 64-bit division.
  bool sampled(std::uint64_t key) const noexcept {
    const std::uint64_t h = hash64(key);
    return (mask_ != 0 ? (h & mask_) : (h % modulus_)) < threshold_;
  }

  /// Halves the sampling threshold (the paper's §5 rate adaptation, also
  /// the profiler's graceful-degradation step). Because sampled() is a
  /// threshold test on the same hash, the surviving key set is an exact
  /// subset of the previous one — evicting keys that no longer pass keeps
  /// the sample statistically valid. The threshold never drops below 1.
  void halve() noexcept {
    if (threshold_ > 1) {
      threshold_ /= 2;
      ++halvings_;
    }
  }

  /// Rate-halving epochs: how many times halve() actually lowered the
  /// threshold (a bottomed-out filter stops counting). Epoch boundaries
  /// matter to readers of the obs layer because distances recorded in
  /// different epochs were scaled by different factors.
  std::uint64_t halvings() const noexcept { return halvings_; }

  /// The realized rate T/P (may differ slightly from the requested rate
  /// because T is integral).
  double rate() const noexcept {
    return static_cast<double>(threshold_) / static_cast<double>(modulus_);
  }

  /// 1/rate: the factor sampled stack distances are scaled by.
  double scale() const noexcept { return 1.0 / rate(); }

  std::uint64_t modulus() const noexcept { return modulus_; }
  std::uint64_t threshold() const noexcept { return threshold_; }

  /// Checkpoint support: reinstates a previously observed (threshold,
  /// halvings) pair. The threshold is clamped to [1, modulus] so a corrupt
  /// snapshot cannot produce a filter that samples nothing or oversamples.
  void restore(std::uint64_t threshold, std::uint64_t halvings) noexcept {
    if (threshold < 1) threshold = 1;
    if (threshold > modulus_) threshold = modulus_;
    threshold_ = threshold;
    halvings_ = halvings;
  }

 private:
  std::uint64_t modulus_;
  /// modulus_ - 1 when modulus_ is a power of two above 1, else 0 (use %).
  std::uint64_t mask_;
  std::uint64_t threshold_;
  std::uint64_t halvings_ = 0;
};

/// The paper keeps sampling error low by ensuring at least `min_objects`
/// (8K) objects are sampled (§5.3): given a workload's expected distinct
/// object count, returns max(base_rate, min_objects / distinct_objects),
/// capped at 1.
double adaptive_sampling_rate(double base_rate, std::uint64_t distinct_objects,
                              std::uint64_t min_objects = 8192);

}  // namespace krr
