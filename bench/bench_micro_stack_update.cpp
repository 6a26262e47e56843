// Micro-benchmarks (google-benchmark): per-access cost of the three stack
// update strategies across K and stack depth M. Complements the wall-clock
// Table 5.3 bench with isolated per-operation numbers.

#include <benchmark/benchmark.h>

#include <vector>

#include "baselines/lru_stack.h"
#include "baselines/olken_tree.h"
#include "core/krr_stack.h"
#include "sim/klru_cache.h"
#include "sim/redis_cache.h"
#include "trace/zipf.h"
#include "util/options.h"

namespace {

using krr::KrrStack;
using krr::KrrStackConfig;
using krr::UpdateStrategy;

// A pre-generated scrambled Zipfian key stream over `items` keys.
std::vector<std::uint64_t> zipf_keys(std::uint64_t items, double alpha, int count) {
  krr::ZipfianGenerator gen(items, alpha, /*seed=*/42, /*scrambled=*/true);
  std::vector<std::uint64_t> keys;
  keys.reserve(count);
  for (int i = 0; i < count; ++i) keys.push_back(gen.next().key);
  return keys;
}

// Measures the steady-state access cost of a KRR stack cycling over `keys`.
void run_stack(benchmark::State& state, KrrStackConfig cfg,
               const std::vector<std::uint64_t>& keys) {
  cfg.seed = 7;
  KrrStack stack(cfg);
  // Warm the stack so accesses hit realistic depths.
  for (std::uint64_t key : keys) stack.access(key);

  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.access(keys[i]));
    if (++i == keys.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Args: {distinct items M, KRR exponent K} over a Zipf(0.8) stream.
void run_stack_update(benchmark::State& state, UpdateStrategy strategy) {
  KrrStackConfig cfg;
  cfg.k = static_cast<double>(state.range(1));
  cfg.strategy = strategy;
  run_stack(state, cfg, zipf_keys(static_cast<std::uint64_t>(state.range(0)), 0.8, 1 << 16));
}

void BM_Linear(benchmark::State& state) {
  run_stack_update(state, UpdateStrategy::kLinear);
}
void BM_TopDown(benchmark::State& state) {
  run_stack_update(state, UpdateStrategy::kTopDown);
}
void BM_Backward(benchmark::State& state) {
  run_stack_update(state, UpdateStrategy::kBackward);
}

// Args: {distinct items M, KRR exponent K}.
BENCHMARK(BM_Linear)->Args({1 << 12, 1})->Args({1 << 14, 5});
BENCHMARK(BM_TopDown)
    ->Args({1 << 12, 1})
    ->Args({1 << 14, 5})
    ->Args({1 << 16, 5})
    ->Args({1 << 16, 32});
BENCHMARK(BM_Backward)
    ->Args({1 << 12, 1})
    ->Args({1 << 14, 5})
    ->Args({1 << 16, 5})
    ->Args({1 << 16, 32});

// The perfbench hot_stack shape: a 100k-key scrambled Zipf(0.9) stream at
// R = 1 with the corrected K' = 5^1.4 and the backward strategy, where the
// swap sampler and the stack rotation are nearly all of the time.
void BM_HotStack(benchmark::State& state) {
  KrrStackConfig cfg;
  cfg.k = krr::corrected_k(5.0);
  cfg.strategy = UpdateStrategy::kBackward;
  run_stack(state, cfg, zipf_keys(100000, 0.9, 1 << 18));
}
BENCHMARK(BM_HotStack);

// Simulator per-access cost: the constant the "Simulation" row of
// Table 5.3 pays per request per cache size.
void BM_KLruAccess(benchmark::State& state) {
  const auto items = static_cast<std::uint64_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  krr::ZipfianGenerator gen(items, 0.8, 3, true);
  std::vector<krr::Request> reqs;
  for (int i = 0; i < (1 << 16); ++i) reqs.push_back(gen.next());
  krr::KLruConfig cfg;
  cfg.capacity = items / 2;
  cfg.sample_size = k;
  cfg.seed = 5;
  krr::KLruCache cache(cfg);
  for (const krr::Request& r : reqs) cache.access(r);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(reqs[i]));
    if (++i == reqs.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KLruAccess)->Args({1 << 14, 5})->Args({1 << 14, 32});

// Redis-style eviction path (pool maintenance included).
void BM_RedisAccess(benchmark::State& state) {
  const auto items = static_cast<std::uint64_t>(state.range(0));
  krr::ZipfianGenerator gen(items, 0.8, 7, true);
  std::vector<krr::Request> reqs;
  for (int i = 0; i < (1 << 16); ++i) reqs.push_back(gen.next());
  krr::RedisLruConfig cfg;
  cfg.capacity = items / 2;
  cfg.seed = 5;
  krr::RedisLruCache cache(cfg);
  for (const krr::Request& r : reqs) cache.access(r);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(reqs[i]));
    if (++i == reqs.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RedisAccess)->Args({1 << 14});

// Exact LRU distance structures: Fenwick-over-time vs order-statistic
// treap (same quantity, different structure).
void BM_FenwickDistance(benchmark::State& state) {
  krr::ZipfianGenerator gen(1 << 14, 0.8, 9, true);
  std::vector<krr::Request> reqs;
  for (int i = 0; i < (1 << 16); ++i) reqs.push_back(gen.next());
  krr::LruStackProfiler profiler;
  for (const krr::Request& r : reqs) profiler.access(r);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.access(reqs[i]));
    if (++i == reqs.size()) i = 0;
  }
}
BENCHMARK(BM_FenwickDistance);

void BM_TreapDistance(benchmark::State& state) {
  krr::ZipfianGenerator gen(1 << 14, 0.8, 9, true);
  std::vector<krr::Request> reqs;
  for (int i = 0; i < (1 << 16); ++i) reqs.push_back(gen.next());
  krr::OlkenTreeProfiler profiler;
  for (const krr::Request& r : reqs) profiler.access(r);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.access(reqs[i]));
    if (++i == reqs.size()) i = 0;
  }
}
BENCHMARK(BM_TreapDistance);

}  // namespace
