#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace krr {

namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

/// Slicing-by-16 tables: kTables[0] is the classic byte table; kTables[k][b]
/// is the CRC of byte b followed by k zero bytes, so sixteen independent
/// table lookups advance the register by one 16-byte step (16 KiB of
/// tables, resident in L1 while a block is checksummed).
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t length, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  // The 16-byte step reads the register's low byte as the first stream
  // byte, which holds only for little-endian loads; other hosts take the
  // byte loop for the whole buffer.
  if constexpr (std::endian::native == std::endian::little) {
    for (; length >= 16; bytes += 16, length -= 16) {
      std::uint64_t a, b;  // unaligned-safe loads
      std::memcpy(&a, bytes, sizeof(a));
      std::memcpy(&b, bytes + 8, sizeof(b));
      const std::uint32_t w0 = static_cast<std::uint32_t>(a) ^ c;
      const std::uint32_t w1 = static_cast<std::uint32_t>(a >> 32);
      const std::uint32_t w2 = static_cast<std::uint32_t>(b);
      const std::uint32_t w3 = static_cast<std::uint32_t>(b >> 32);
      c = kTables[15][w0 & 0xFFu] ^ kTables[14][(w0 >> 8) & 0xFFu] ^
          kTables[13][(w0 >> 16) & 0xFFu] ^ kTables[12][w0 >> 24] ^
          kTables[11][w1 & 0xFFu] ^ kTables[10][(w1 >> 8) & 0xFFu] ^
          kTables[9][(w1 >> 16) & 0xFFu] ^ kTables[8][w1 >> 24] ^
          kTables[7][w2 & 0xFFu] ^ kTables[6][(w2 >> 8) & 0xFFu] ^
          kTables[5][(w2 >> 16) & 0xFFu] ^ kTables[4][w2 >> 24] ^
          kTables[3][w3 & 0xFFu] ^ kTables[2][(w3 >> 8) & 0xFFu] ^
          kTables[1][(w3 >> 16) & 0xFFu] ^ kTables[0][w3 >> 24];
    }
  }
  for (; length > 0; ++bytes, --length) {
    c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace krr
