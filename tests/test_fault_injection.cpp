// Fault-injection harness for the ingestion and profiling pipeline: a
// generated corpus of mutated traces (single-bit flips at every position,
// truncation at every byte boundary, duplicated blocks, hostile headers)
// driven through every recovery policy. The invariants under test are the
// robustness contract of ISSUE 1:
//
//   * kStrict never crashes and never OOMs: every mutation yields either a
//     typed error or (v1, where records are unchecksummed) a clean parse.
//   * In format v2, *every* single-bit corruption is detected in strict
//     mode (header CRC, block CRC, or framing).
//   * kSkipAndCount always completes with an accurate report, and the MRC
//     profiled from its output stays within tolerance of the clean trace.
//   * kBestEffort returns a prefix of the clean trace.
//   * The profiler under a memory ceiling degrades its sampling rate
//     instead of exceeding the limit.
//
// This file runs under ASan/UBSan via the `sanitize` ctest label
// (-DKRR_SANITIZE=address;undefined).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "trace/generator.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "trace/zipf.h"
#include "util/mrc.h"

namespace krr {
namespace {

std::vector<Request> corpus_trace(std::size_t n, std::uint64_t seed = 11) {
  ZipfianGenerator gen(500, 0.95, seed, true, 100);
  auto trace = materialize(gen, n);
  for (std::size_t i = 0; i < trace.size(); i += 7) trace[i].op = Op::kSet;
  return trace;
}

std::string serialize_v2(const std::vector<Request>& trace,
                         std::uint32_t records_per_block) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_trace_binary_v2(ss, trace, records_per_block);
  return ss.str();
}

std::string serialize_v1(const std::vector<Request>& trace) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_trace_binary(ss, trace);
  return ss.str();
}

StatusOr<std::vector<Request>> parse(const std::string& bytes,
                                     RecoveryPolicy policy,
                                     TraceReadReport* report = nullptr) {
  std::stringstream ss(bytes);
  TraceReaderOptions options;
  options.policy = policy;
  options.max_bad_records = 1u << 20;
  return read_trace(ss, options, report);
}

/// True if `prefix` is a prefix of `full`.
bool is_prefix_of(const std::vector<Request>& prefix,
                  const std::vector<Request>& full) {
  if (prefix.size() > full.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), full.begin());
}

TEST(FaultInjection, V2StrictDetectsEverySingleBitFlip) {
  const auto trace = corpus_trace(150);
  const std::string clean = serialize_v2(trace, 32);
  std::string bytes = clean;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      auto result = parse(bytes, RecoveryPolicy::kStrict);
      EXPECT_FALSE(result.is_ok())
          << "bit flip at byte " << i << " bit " << bit << " went undetected";
      if (!result.is_ok()) {
        EXPECT_NE(result.status().code(), StatusCode::kOk);
        EXPECT_NE(result.status().code(), StatusCode::kInternal);
      }
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
    }
  }
  ASSERT_EQ(bytes, clean);  // the corpus loop restored every byte
}

TEST(FaultInjection, V2SkipAndCountSurvivesEverySingleBitFlip) {
  const auto trace = corpus_trace(150);
  const std::string clean = serialize_v2(trace, 32);
  std::string bytes = clean;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    TraceReadReport report;
    auto result = parse(bytes, RecoveryPolicy::kSkipAndCount, &report);
    // Flips in the file header can make the stream unreadable (bad magic /
    // unknown version) — those fail with a typed error. Everything past
    // the version field must be recoverable.
    if (i < 12) {
      EXPECT_FALSE(result.is_ok()) << "byte " << i;
    } else {
      ASSERT_TRUE(result.is_ok())
          << "byte " << i << ": " << result.status().to_string();
      // Whatever was delivered, plus what the report says was dropped,
      // accounts for every record that went missing.
      EXPECT_EQ(report.records_read, result->size()) << "byte " << i;
      EXPECT_GE(result->size() + report.records_skipped +
                    (report.truncated_tail ? trace.size() : 0) +
                    report.bytes_discarded / 13 + 2,
                trace.size())
          << "byte " << i;
    }
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
  }
}

TEST(FaultInjection, V2TruncationAtEveryBoundary) {
  const auto trace = corpus_trace(120);
  const std::string clean = serialize_v2(trace, 25);
  for (std::size_t len = 0; len < clean.size(); ++len) {
    const std::string cut = clean.substr(0, len);
    // Strict: always a typed error (the stream is incomplete).
    auto strict = parse(cut, RecoveryPolicy::kStrict);
    EXPECT_FALSE(strict.is_ok()) << "length " << len;
    // Best effort: a clean prefix of the original records, never garbage.
    // (Only an unrecognizable magic — under 8 bytes — is a hard error.)
    auto best = parse(cut, RecoveryPolicy::kBestEffort);
    if (len < 8) {
      EXPECT_FALSE(best.is_ok()) << "length " << len;
      continue;
    }
    ASSERT_TRUE(best.is_ok()) << "length " << len << ": "
                              << best.status().to_string();
    EXPECT_TRUE(is_prefix_of(*best, trace)) << "length " << len;
    // Skip: same records (truncation loses the tail; nothing to resync).
    TraceReadReport report;
    auto skip = parse(cut, RecoveryPolicy::kSkipAndCount, &report);
    ASSERT_TRUE(skip.is_ok()) << "length " << len;
    EXPECT_EQ(*skip, *best) << "length " << len;
    EXPECT_TRUE(report.truncated_tail) << "length " << len;
  }
}

TEST(FaultInjection, V1TruncationAtEveryBoundary) {
  const auto trace = corpus_trace(60);
  const std::string clean = serialize_v1(trace);
  for (std::size_t len = 0; len < clean.size(); ++len) {
    const std::string cut = clean.substr(0, len);
    auto strict = parse(cut, RecoveryPolicy::kStrict);
    EXPECT_FALSE(strict.is_ok()) << "length " << len;
    auto best = parse(cut, RecoveryPolicy::kBestEffort);
    if (len < 8) {
      EXPECT_FALSE(best.is_ok()) << "length " << len;
      continue;
    }
    ASSERT_TRUE(best.is_ok()) << "length " << len;
    // v1 records are fixed-width, so exactly (len - 20) / 13 survive.
    const std::size_t expected = len < 20 ? 0 : (len - 20) / 13;
    EXPECT_EQ(best->size(), expected) << "length " << len;
    EXPECT_TRUE(is_prefix_of(*best, trace)) << "length " << len;
  }
}

TEST(FaultInjection, V1BadOpBytesNeverCrash) {
  const auto trace = corpus_trace(60);
  const std::string clean = serialize_v1(trace);
  // Stomp every op byte in turn (offset 20 + i*13 + 12) with garbage.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::string bytes = clean;
    bytes[20 + i * 13 + 12] = static_cast<char>(0xEE);
    auto strict = parse(bytes, RecoveryPolicy::kStrict);
    ASSERT_FALSE(strict.is_ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kBadRecord);
    TraceReadReport report;
    auto skip = parse(bytes, RecoveryPolicy::kSkipAndCount, &report);
    ASSERT_TRUE(skip.is_ok());
    EXPECT_EQ(skip->size(), trace.size() - 1);
    EXPECT_EQ(report.records_skipped, 1u);
    auto best = parse(bytes, RecoveryPolicy::kBestEffort);
    ASSERT_TRUE(best.is_ok());
    EXPECT_EQ(best->size(), i);
  }
}

TEST(FaultInjection, DuplicatedBlocks) {
  const auto trace = corpus_trace(100);
  const std::string clean = serialize_v2(trace, 25);
  // Duplicate the second block (offset 28 + 337 .. + 2*337).
  const std::size_t block_bytes = 12 + 25 * 13;
  const std::size_t second = 28 + block_bytes;
  std::string bytes = clean;
  bytes.insert(second + block_bytes, clean.substr(second, block_bytes));

  auto strict = parse(bytes, RecoveryPolicy::kStrict);
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kBadRecord);

  TraceReadReport report;
  auto skip = parse(bytes, RecoveryPolicy::kSkipAndCount, &report);
  ASSERT_TRUE(skip.is_ok());
  // Recovery trusts the stream: the duplicate's records are delivered and
  // the count mismatch is visible in the report.
  EXPECT_EQ(skip->size(), trace.size() + 25);
  EXPECT_EQ(report.declared_records, trace.size());
  EXPECT_GT(report.records_read, report.declared_records);
}

TEST(FaultInjection, HostileHeaderNeverAllocatesUnbounded) {
  // Claim 2^61 records in both formats; the reader must reject (strict,
  // seekable) or deliver only what exists — without reserving 2^61 slots.
  for (const bool v2 : {false, true}) {
    const auto trace = corpus_trace(10);
    std::string bytes = v2 ? serialize_v2(trace, 4) : serialize_v1(trace);
    const std::uint64_t hostile = 1ULL << 61;
    for (int i = 0; i < 8; ++i) {
      bytes[12 + i] = static_cast<char>(hostile >> (8 * i));
    }
    auto strict = parse(bytes, RecoveryPolicy::kStrict);
    ASSERT_FALSE(strict.is_ok()) << (v2 ? "v2" : "v1");
    EXPECT_EQ(strict.status().code(), StatusCode::kCorruptHeader);

    TraceReadReport report;
    auto skip = parse(bytes, RecoveryPolicy::kSkipAndCount, &report);
    ASSERT_TRUE(skip.is_ok()) << (v2 ? "v2" : "v1");
    EXPECT_EQ(*skip, trace);
    EXPECT_TRUE(report.truncated_tail);
  }
}

TEST(FaultInjection, SkipAndCountProfilesWithinTolerance) {
  // Corrupt ~6% of a 20K-request trace (3 blocks of 256), recover with
  // kSkipAndCount, and check the profiled MRC against the clean trace's.
  // KRR's statistical nature makes dropped records benign — this is the
  // justification for the default recovery policy.
  const auto trace = corpus_trace(20000, 23);
  std::string bytes = serialize_v2(trace, 256);
  const std::size_t block_bytes = 12 + 256 * 13;
  for (const std::size_t block : {10u, 30u, 55u}) {
    const std::size_t payload = 28 + block * block_bytes + 12;
    bytes[payload + 100] = static_cast<char>(bytes[payload + 100] ^ 0x08);
  }
  TraceReadReport report;
  auto recovered = parse(bytes, RecoveryPolicy::kSkipAndCount, &report);
  ASSERT_TRUE(recovered.is_ok());
  EXPECT_EQ(report.checksum_failures, 3u);
  EXPECT_EQ(report.records_skipped, 3u * 256u);
  EXPECT_EQ(recovered->size(), trace.size() - 3u * 256u);

  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  cfg.seed = 3;
  KrrProfiler clean_profiler(cfg);
  for (const Request& r : trace) clean_profiler.access(r);
  KrrProfiler dirty_profiler(cfg);
  for (const Request& r : *recovered) dirty_profiler.access(r);

  const auto sizes = evenly_spaced_sizes(500.0, 20);
  const double mae = dirty_profiler.mrc().mae(clean_profiler.mrc(), sizes);
  EXPECT_LT(mae, 0.02) << "recovered profile drifted from the clean one";
}

TEST(GracefulDegradation, CeilingHalvesRateInsteadOfGrowing) {
  // A stream of all-cold keys is the worst case for profiler memory. With
  // a ~1 MB ceiling (≈ 18.7K tracked objects at 56 B each) the profiler
  // must degrade its sampling rate rather than keep growing.
  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  cfg.max_stack_bytes = 1u << 20;
  KrrProfiler profiler(cfg);
  for (std::uint64_t key = 0; key < 100000; ++key) {
    profiler.access({key, 1, Op::kGet});
    if (key % 4096 == 0) {
      EXPECT_LE(profiler.space_overhead_bytes(), cfg.max_stack_bytes);
    }
  }
  EXPECT_LE(profiler.space_overhead_bytes(), cfg.max_stack_bytes);
  EXPECT_GE(profiler.degradation_events(), 1u);
  EXPECT_LT(profiler.current_sampling_rate(), 1.0);
  const RunReport report = profiler.run_report();
  EXPECT_EQ(report.degradation_events, profiler.degradation_events());
  EXPECT_EQ(report.final_sampling_rate, profiler.current_sampling_rate());
  EXPECT_EQ(report.records_read, 100000u);
  // The MRC is still usable: monotone non-increasing with cache size.
  const MissRatioCurve mrc = profiler.mrc();
  EXPECT_GT(mrc.points().size(), 0u);
}

TEST(GracefulDegradation, SixtyFourMbCeilingHolds) {
  // The acceptance-criteria configuration: a 64 MB stack ceiling (≈ 1.2M
  // tracked objects). Sequential cold keys blow straight through that
  // unless degradation kicks in.
  KrrProfilerConfig cfg;
  cfg.k_sample = 5;
  cfg.max_stack_bytes = 64ull << 20;
  KrrProfiler profiler(cfg);
  for (std::uint64_t key = 0; key < 1500000; ++key) {
    profiler.access({key, 1, Op::kGet});
  }
  EXPECT_LE(profiler.space_overhead_bytes(), cfg.max_stack_bytes);
  EXPECT_GE(profiler.degradation_events(), 1u);
  EXPECT_LE(profiler.current_sampling_rate(), 0.5);
}

TEST(GracefulDegradation, DegradedProfileStaysAccurate) {
  // Halving the rate mid-run must not wreck the curve: compare a degraded
  // profiler against an unconstrained one on the same skewed workload.
  const auto trace = corpus_trace(60000, 41);
  KrrProfilerConfig unconstrained;
  unconstrained.k_sample = 5;
  unconstrained.seed = 9;
  KrrProfiler reference(unconstrained);
  for (const Request& r : trace) reference.access(r);

  KrrProfilerConfig limited = unconstrained;
  // 500 objects * 56 B: forces at least one halving on a 500-object
  // footprint... but the zipf footprint is 500, so pick a ceiling that
  // bites partway through the cold ramp.
  limited.max_stack_bytes = 300 * 56;
  KrrProfiler degraded(limited);
  for (const Request& r : trace) degraded.access(r);
  ASSERT_GE(degraded.degradation_events(), 1u);
  EXPECT_LE(degraded.space_overhead_bytes(), limited.max_stack_bytes);

  const auto sizes = evenly_spaced_sizes(500.0, 20);
  const double mae = degraded.mrc().mae(reference.mrc(), sizes);
  EXPECT_LT(mae, 0.08) << "degraded profile drifted too far";
}

TEST(GracefulDegradation, RetainPreservesStackOrder) {
  KrrStackConfig cfg;
  cfg.k = 8;
  cfg.track_bytes = true;
  KrrStack stack(cfg);
  for (std::uint64_t key = 0; key < 200; ++key) stack.access(key, 10);
  const std::vector<std::uint64_t> before = stack.keys();
  const std::uint64_t evicted = stack.retain(
      [](std::uint64_t key) { return key % 2 == 0; });
  EXPECT_EQ(evicted + stack.depth(), before.size());
  // Survivors keep their relative order.
  std::vector<std::uint64_t> expected;
  for (const std::uint64_t key : before) {
    if (key % 2 == 0) expected.push_back(key);
  }
  EXPECT_EQ(stack.keys(), expected);
  EXPECT_EQ(stack.total_bytes(), 10u * expected.size());
  // The stack keeps working after compaction.
  for (std::uint64_t key = 0; key < 200; ++key) stack.access(key, 10);
  EXPECT_EQ(stack.depth(), 200u);
}

}  // namespace
}  // namespace krr
