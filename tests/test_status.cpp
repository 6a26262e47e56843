#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/status.h"

namespace krr {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
  EXPECT_EQ(s, Status::ok());
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s = truncated_error("stream ended early");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kTruncated);
  EXPECT_EQ(s.message(), "stream ended early");
  EXPECT_EQ(s.to_string(), "truncated: stream ended early");
}

TEST(Status, EveryCodeHasAStableName) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_STREQ(status_code_name(StatusCode::kCorruptHeader), "corrupt_header");
  EXPECT_STREQ(status_code_name(StatusCode::kUnsupportedVersion),
               "unsupported_version");
  EXPECT_STREQ(status_code_name(StatusCode::kTruncated), "truncated");
  EXPECT_STREQ(status_code_name(StatusCode::kBadRecord), "bad_record");
  EXPECT_STREQ(status_code_name(StatusCode::kChecksumMismatch),
               "checksum_mismatch");
  EXPECT_STREQ(status_code_name(StatusCode::kResourceLimit), "resource_limit");
  EXPECT_STREQ(status_code_name(StatusCode::kIoError), "io_error");
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "internal");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> r = bad_record_error("nope");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBadRecord);
  EXPECT_THROW(r.value(), StatusError);
}

TEST(StatusOr, ValueOrThrowPropagatesCode) {
  try {
    value_or_throw(StatusOr<int>(checksum_mismatch_error("block 3")));
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kChecksumMismatch);
    EXPECT_NE(std::string(e.what()).find("block 3"), std::string::npos);
  }
}

TEST(StatusError, IsARuntimeError) {
  // Legacy call sites catch std::runtime_error; the typed exception must
  // keep satisfying them.
  EXPECT_THROW(throw StatusError(io_error("disk on fire")), std::runtime_error);
}

TEST(Crc32, KnownVectors) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  const char* abc = "abc";
  EXPECT_EQ(crc32(abc, 3), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 inc;
  inc.update(data.data(), 10);
  inc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc.value(), crc32(data.data(), data.size()));
  inc.reset();
  EXPECT_EQ(inc.value(), 0u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string data = "fault tolerant ingestion";
  const std::uint32_t clean = crc32(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
      EXPECT_NE(crc32(data.data(), data.size()), clean)
          << "byte " << i << " bit " << bit;
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
    }
  }
}

// Bit-at-a-time CRC-32, straight from the polynomial: the reference the
// sliced implementation must match on every length, alignment and seed.
std::uint32_t bitwise_crc32(const unsigned char* data, std::size_t length,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < length; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return ~c;
}

TEST(Crc32, MatchesBitwiseReference) {
  std::mt19937_64 rng(20240611);
  std::vector<unsigned char> buffer(4096 + 64);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng());
  // Every short length (each word/tail split) at every offset within a word.
  for (std::size_t length = 0; length <= 16; ++length) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint32_t seed = static_cast<std::uint32_t>(rng());
      const unsigned char* p = buffer.data() + offset;
      ASSERT_EQ(crc32(p, length, seed), bitwise_crc32(p, length, seed))
          << "length " << length << " offset " << offset;
      ASSERT_EQ(crc32(p, length), bitwise_crc32(p, length, 0))
          << "length " << length << " offset " << offset;
    }
  }
  // Random (length, offset, seed) triples up to a 4 KiB block.
  for (int i = 0; i < 2000; ++i) {
    const std::size_t length = rng() % 4097;
    const std::size_t offset = rng() % 64;
    const std::uint32_t seed = static_cast<std::uint32_t>(rng());
    const unsigned char* p = buffer.data() + offset;
    ASSERT_EQ(crc32(p, length, seed), bitwise_crc32(p, length, seed))
        << "length " << length << " offset " << offset << " seed " << seed;
  }
}

}  // namespace
}  // namespace krr
