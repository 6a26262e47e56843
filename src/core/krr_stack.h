#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/size_tracker.h"
#include "core/swap_sampler.h"
#include "util/prng.h"

namespace krr {

namespace obs {
struct StackMetrics;
}

namespace ckpt {
class ByteReader;
}

/// Configuration for the KRR probabilistic stack (§4).
struct KrrStackConfig {
  /// KRR exponent. To model a K-LRU cache with sampling size K, pass
  /// corrected_k(K) (the K' = K^1.4 correction, §4.2) or K itself to ablate
  /// the correction. Must be >= 1.
  double k = 1.0;
  UpdateStrategy strategy = UpdateStrategy::kBackward;
  /// Which K-LRU sampling convention is modeled (Prop. 1 vs Prop. 2).
  SamplingModel sampling_model = SamplingModel::kPlacingBack;
  std::uint64_t seed = 1;
  /// Track byte-level distances (var-KRR, §4.4.1).
  bool track_bytes = false;
  /// sizeArray base b (only with track_bytes).
  std::uint32_t size_array_base = 2;
  /// Additionally maintain the exact Fenwick byte tracker (tests/ablation;
  /// only with track_bytes).
  bool track_bytes_exact = false;
};

/// The K' = K^1.4 correction (§4.2): the KRR exponent that best models a
/// K-LRU cache with sampling size K. K == 1 maps to 1 (KRR == RR == ideal
/// random replacement, where the model is statistically exact).
double corrected_k(double k_sample);

/// The KRR probabilistic stack (§4.1): a Mattson stack whose maxPriority
/// function keeps the resident of position i with probability ((i-1)/i)^K.
/// The stack is a key -> position hash (§4.4) plus a flat array of handles
/// to that hash's entries, updated by rotating the sampled swap chain, so
/// one access costs O(K log M) expected with the backward strategy and one
/// hash lookup: a rotation rewrites positions through the handles.
class KrrStack {
 public:
  struct AccessResult {
    bool cold;                    ///< first-ever reference to this key
    std::uint64_t position;       ///< stack distance phi (1-based); for a
                                  ///< cold ref, the stack length it landed at
    std::uint64_t byte_distance;  ///< approximate byte-level distance
                                  ///< (0 unless track_bytes)
  };

  explicit KrrStack(const KrrStackConfig& config);

  // Stack slots point into the stack's own position index, so a copy
  // would alias the original; moving keeps every handle valid.
  KrrStack(const KrrStack&) = delete;
  KrrStack& operator=(const KrrStack&) = delete;
  KrrStack(KrrStack&&) = default;
  KrrStack& operator=(KrrStack&&) = default;

  /// Processes one reference and reports its stack distance(s). `size` is
  /// ignored unless byte tracking is on; a resident object whose size
  /// changes is resized in place before the distance is measured.
  AccessResult access(std::uint64_t key, std::uint32_t size = 1);

  /// Distinct objects seen so far (the stack length, gamma).
  std::uint64_t depth() const noexcept { return stack_.size(); }

  std::uint64_t total_bytes() const noexcept;

  /// Exact byte distance of the last access (only if track_bytes_exact).
  std::optional<std::uint64_t> last_exact_byte_distance() const noexcept {
    return last_exact_byte_distance_;
  }

  /// Evicts every resident whose key fails the predicate, preserving the
  /// relative stack order of the survivors; all auxiliary structures
  /// (position index, sizeArray, exact byte tracker) are rebuilt
  /// consistently. O(M) — used by rare events such as sampling-rate
  /// degradation, not on the access path. Returns the eviction count.
  std::uint64_t retain(const std::function<bool(std::uint64_t)>& keep);

  /// Number of swap positions processed over the stack's lifetime
  /// (instrumentation for the Fig. 5.4 overhead experiment).
  std::uint64_t swaps_performed() const noexcept { return swaps_performed_; }

  /// Attaches hot-path instrumentation: per-access swap counts, chain-
  /// length distribution, and a sampled update-latency histogram (every
  /// kTimingStride-th access is timed so the clock reads amortize to
  /// ~nothing). The pointed-to metrics must outlive the stack; pass
  /// nullptr to detach. No-op when KRR_METRICS is compiled out.
  void attach_metrics(obs::StackMetrics* metrics) noexcept;

  /// Every kTimingStride-th instrumented access reads the clock twice to
  /// feed stack.update_ns; the rest record only integer counters.
  static constexpr std::uint64_t kTimingStride = 64;

  const KrrStackConfig& config() const noexcept { return config_; }

  /// Key at stack position (1-based); test/diagnostic helper.
  std::uint64_t key_at(std::uint64_t position) const {
    return stack_.at(position - 1)->first;
  }

  /// Keys from top to bottom, copied out of the stack (a fresh vector per
  /// call); test/diagnostic helper.
  std::vector<std::uint64_t> keys() const;

  /// Checkpoint support: appends the complete stack state (keys, sizes,
  /// PRNG stream, swap count) to `out` in the ckpt byte format. Sizes are
  /// kept only with byte tracking; without it every size is written as 1.
  void save_state(std::string& out) const;

  /// Restores state written by save_state() into a stack built from the
  /// same config; auxiliary structures (position index, byte trackers) are
  /// rebuilt by replay, exactly as retain() does. Returns false when the
  /// payload is truncated or inconsistent (the stack is left cleared).
  bool load_state(ckpt::ByteReader& reader);

 private:
  using PositionIndex = std::unordered_map<std::uint64_t, std::uint64_t>;
  /// A stack slot: the key's node in position_ (stable across rehashes).
  using Entry = PositionIndex::value_type;

  AccessResult access_impl(std::uint64_t key, std::uint32_t size);
  /// Fills chain_ with the swap chain for distance phi, descending:
  /// chain_.front() == phi, chain_.back() == 1.
  void sample_chain_descending(std::uint64_t phi);
#ifdef KRR_METRICS_ENABLED
  AccessResult access_instrumented(std::uint64_t key, std::uint32_t size);
#endif

  KrrStackConfig config_;
  SwapSampler sampler_;
  Xoshiro256ss rng_;
  PositionIndex position_;             // key -> index into stack_
  std::vector<Entry*> stack_;          // index 0 = stack top
  std::vector<std::uint32_t> sizes_;   // aligned with stack_; byte tracking only
  std::vector<std::uint64_t> chain_;   // reused swap-chain buffer
  std::vector<std::uint64_t> ascending_;  // chain_ reversed, for byte trackers
  std::unique_ptr<SizeArray> size_array_;
  std::unique_ptr<ExactByteTracker> exact_bytes_;
  std::optional<std::uint64_t> last_exact_byte_distance_;
  std::uint64_t swaps_performed_ = 0;
#ifdef KRR_METRICS_ENABLED
  obs::StackMetrics* metrics_ = nullptr;
  std::uint64_t metrics_seq_ = 0;
#endif
};

}  // namespace krr
