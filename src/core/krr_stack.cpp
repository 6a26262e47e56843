#include "core/krr_stack.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace krr {

double corrected_k(double k_sample) {
  if (!(k_sample >= 1.0)) throw std::invalid_argument("sampling size must be >= 1");
  return std::pow(k_sample, 1.4);
}

KrrStack::KrrStack(const KrrStackConfig& config)
    : config_(config),
      sampler_(config.strategy, config.k, config.sampling_model),
      rng_(config.seed) {
  if (config_.track_bytes) {
    size_array_ = std::make_unique<SizeArray>(config_.size_array_base);
    if (config_.track_bytes_exact) exact_bytes_ = std::make_unique<ExactByteTracker>();
  } else if (config_.track_bytes_exact) {
    throw std::invalid_argument("track_bytes_exact requires track_bytes");
  }
}

std::uint64_t KrrStack::total_bytes() const noexcept {
  return size_array_ ? size_array_->total_bytes() : stack_.size();
}

std::vector<std::uint64_t> KrrStack::keys() const {
  std::vector<std::uint64_t> out;
  out.reserve(stack_.size());
  for (const Entry* entry : stack_) out.push_back(entry->first);
  return out;
}

std::uint64_t KrrStack::retain(const std::function<bool(std::uint64_t)>& keep) {
  std::size_t write = 0;
  for (std::size_t read = 0; read < stack_.size(); ++read) {
    Entry* entry = stack_[read];
    if (!keep(entry->first)) {
      position_.erase(entry->first);
      continue;
    }
    entry->second = write;
    stack_[write] = entry;
    if (size_array_) sizes_[write] = sizes_[read];
    ++write;
  }
  const std::uint64_t evicted = stack_.size() - write;
  if (evicted == 0) return 0;
  stack_.resize(write);
  if (size_array_) sizes_.resize(write);
  // The byte trackers are prefix structures over stack positions; rebuild
  // them by replaying the compacted stack as appends (top first).
  if (size_array_) {
    size_array_ = std::make_unique<SizeArray>(config_.size_array_base);
    for (std::size_t i = 0; i < write; ++i) {
      size_array_->on_append(sizes_[i], i + 1);
    }
  }
  if (exact_bytes_) {
    exact_bytes_ = std::make_unique<ExactByteTracker>();
    for (std::size_t i = 0; i < write; ++i) {
      exact_bytes_->on_append(sizes_[i], i + 1);
    }
  }
  last_exact_byte_distance_.reset();
  return evicted;
}

void KrrStack::save_state(std::string& out) const {
  // Without byte tracking every object is one unit, the size the profiler
  // passes on every access, so the format keeps a size field of 1.
  ckpt::append_u64(out, stack_.size());
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    ckpt::append_u64(out, stack_[i]->first);
    ckpt::append_u32(out, size_array_ ? sizes_[i] : 1);
  }
  ckpt::append_u64(out, swaps_performed_);
  std::uint64_t rng_state[4];
  rng_.save_state(rng_state);
  for (const std::uint64_t word : rng_state) ckpt::append_u64(out, word);
}

bool KrrStack::load_state(ckpt::ByteReader& reader) {
  stack_.clear();
  sizes_.clear();
  position_.clear();
  last_exact_byte_distance_.reset();
  std::uint64_t depth = 0;
  if (!reader.read_u64(&depth)) return false;
  // Each entry needs 12 payload bytes; a depth the payload cannot hold is
  // a corrupt length field, not a real stack.
  if (depth > reader.remaining() / 12) return false;
  stack_.reserve(depth);
  if (size_array_) sizes_.reserve(depth);
  position_.reserve(depth);
  for (std::uint64_t i = 0; i < depth; ++i) {
    std::uint64_t key = 0;
    std::uint32_t size = 0;
    if (!reader.read_u64(&key) || !reader.read_u32(&size)) return false;
    // Duplicate keys would desynchronize the position index.
    const auto [it, inserted] = position_.emplace(key, stack_.size());
    if (!inserted) return false;
    stack_.push_back(&*it);
    if (size_array_) sizes_.push_back(size);
  }
  if (!reader.read_u64(&swaps_performed_)) return false;
  std::uint64_t rng_state[4];
  for (std::uint64_t& word : rng_state) {
    if (!reader.read_u64(&word)) return false;
  }
  rng_.load_state(rng_state);
  // Prefix byte trackers are rebuilt by replaying appends, top first (the
  // same reconstruction retain() uses after compaction).
  if (size_array_) {
    size_array_ = std::make_unique<SizeArray>(config_.size_array_base);
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      size_array_->on_append(sizes_[i], i + 1);
    }
  }
  if (exact_bytes_) {
    exact_bytes_ = std::make_unique<ExactByteTracker>();
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      exact_bytes_->on_append(sizes_[i], i + 1);
    }
  }
  return true;
}

void KrrStack::attach_metrics(obs::StackMetrics* metrics) noexcept {
#ifdef KRR_METRICS_ENABLED
  metrics_ = metrics;
#else
  (void)metrics;
#endif
}

KrrStack::AccessResult KrrStack::access(std::uint64_t key, std::uint32_t size) {
#ifdef KRR_METRICS_ENABLED
  if (metrics_ != nullptr) return access_instrumented(key, size);
#endif
  return access_impl(key, size);
}

#ifdef KRR_METRICS_ENABLED
KrrStack::AccessResult KrrStack::access_instrumented(std::uint64_t key,
                                                     std::uint32_t size) {
  // Timing every access would cost two clock reads (~40 ns) against a
  // ~100 ns update — far over the obs overhead budget. Sampling every
  // kTimingStride-th access keeps update_ns statistically representative
  // at ~1/64 of that cost; the integer counters are exact.
  const bool timed = (metrics_seq_++ % kTimingStride) == 0;
  std::optional<Stopwatch> timer;
  if (timed) timer.emplace();
  const std::uint64_t swaps_before = swaps_performed_;
  const AccessResult result = access_impl(key, size);
  const std::uint64_t chain = swaps_performed_ - swaps_before;
  if (result.cold) metrics_->cold_misses->inc();
  metrics_->swaps->inc(chain);
  metrics_->chain_len->record(chain);
  if (timed) metrics_->update_ns->record(timer->nanos());
  return result;
}
#endif

void KrrStack::sample_chain_descending(std::uint64_t phi) {
  chain_.clear();
  if (config_.strategy != UpdateStrategy::kBackward) {
    sampler_.sample(phi, rng_, chain_);
    std::reverse(chain_.begin(), chain_.end());
    return;
  }
  // Each slot is prefetched as the walk names it, so the rotation that
  // follows finds the chain's slots in cache.
  chain_.push_back(phi);
  const bool track_sizes = size_array_ != nullptr;
  sampler_.walk_backward(phi, rng_, [this, track_sizes](std::uint64_t x) {
    __builtin_prefetch(&stack_[x - 1], 1);
    if (track_sizes) __builtin_prefetch(&sizes_[x - 1], 1);
    chain_.push_back(x);
  });
}

KrrStack::AccessResult KrrStack::access_impl(std::uint64_t key, std::uint32_t size) {
  AccessResult result{};
  const auto [it, cold] = position_.try_emplace(key, stack_.size());
  Entry* const entry = &*it;
  const std::uint64_t phi = entry->second + 1;
  result.cold = cold;
  if (cold) {
    // Cold reference: attach at the stack end before the update, so the
    // rotation carries it to the top like any other reference (Alg. 1).
    stack_.push_back(entry);
    if (size_array_) {
      sizes_.push_back(size);
      size_array_->on_append(size, phi);
    }
    if (exact_bytes_) exact_bytes_->on_append(size, phi);
  } else if (size_array_ && sizes_[phi - 1] != size) {
    // A set with a new value size: resize in place before measuring.
    size_array_->on_resize(phi, sizes_[phi - 1], size);
    if (exact_bytes_) exact_bytes_->on_resize(phi, sizes_[phi - 1], size);
    sizes_[phi - 1] = size;
  }
  result.position = phi;
  if (size_array_) result.byte_distance = size_array_->byte_distance(phi);
  if (exact_bytes_) {
    last_exact_byte_distance_ = exact_bytes_->byte_distance(phi);
  }

  // Sample the swap chain and rotate: resident of chain[j+1] moves to
  // chain[j] (the chain runs bottom-up); the referenced object lands on top.
  sample_chain_descending(phi);
  swaps_performed_ += chain_.size();
  if (phi == 1) return result;
  if (size_array_) {
    // The trackers read the pre-rotation sizes, then the sizes follow
    // their objects down the chain.
    ascending_.assign(chain_.rbegin(), chain_.rend());
    size_array_->on_rotate(ascending_, sizes_, size);
    if (exact_bytes_) exact_bytes_->on_rotate(ascending_, sizes_, size);
    for (std::size_t j = 0; j + 1 < chain_.size(); ++j) {
      sizes_[chain_[j] - 1] = sizes_[chain_[j + 1] - 1];
    }
    sizes_[0] = size;
  }
  // Each move writes the moved key's index entry through its handle; the
  // entry two moves ahead is prefetched (its slot is already in cache).
  const std::size_t n = chain_.size();
  for (std::size_t j = 0; j + 1 < n; ++j) {
    if (j + 2 < n) __builtin_prefetch(stack_[chain_[j + 2] - 1], 1);
    const std::uint64_t dst = chain_[j] - 1;
    const std::uint64_t src = chain_[j + 1] - 1;
    Entry* const moved = stack_[src];
    stack_[dst] = moved;
    moved->second = dst;
  }
  stack_[0] = entry;
  entry->second = 0;
  return result;
}

}  // namespace krr
