#include "common/crc.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"

namespace ppr {
namespace {

std::span<const std::uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32Test, KnownVector123456789) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32(AsBytes("123456789")), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(Crc32({}), 0x00000000u); }

TEST(Crc32Test, SingleByte) {
  EXPECT_EQ(Crc32(AsBytes("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  Rng rng(77);
  std::vector<std::uint8_t> data(256);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  const std::uint32_t original = Crc32(data);
  for (int trial = 0; trial < 50; ++trial) {
    auto copy = data;
    const std::size_t byte = rng.UniformInt(copy.size());
    const int bit = static_cast<int>(rng.UniformInt(8));
    copy[byte] = static_cast<std::uint8_t>(copy[byte] ^ (1u << bit));
    EXPECT_NE(Crc32(copy), original);
  }
}

TEST(Crc32Test, DetectsAllBurstErrorsUpTo32Bits) {
  // CRC-32 guarantees detection of any burst no longer than the CRC.
  std::vector<std::uint8_t> data(64, 0x5A);
  const std::uint32_t original = Crc32(data);
  for (std::size_t start_bit = 0; start_bit < 64; ++start_bit) {
    for (std::size_t burst = 1; burst <= 32; ++burst) {
      auto copy = data;
      for (std::size_t b = start_bit; b < start_bit + burst; ++b) {
        copy[b / 8] = static_cast<std::uint8_t>(copy[b / 8] ^ (0x80u >> (b % 8)));
      }
      EXPECT_NE(Crc32(copy), original)
          << "undetected burst at bit " << start_bit << " len " << burst;
    }
  }
}

TEST(Crc16Test, KnownVector123456789) {
  // CRC-16/CCITT-FALSE check value.
  EXPECT_EQ(Crc16(AsBytes("123456789")), 0x29B1u);
}

TEST(Crc16Test, EmptyInputIsInitValue) { EXPECT_EQ(Crc16({}), 0xFFFFu); }

TEST(Crc16Test, DetectsSingleBitFlip) {
  Rng rng(78);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  const std::uint16_t original = Crc16(data);
  for (int trial = 0; trial < 50; ++trial) {
    auto copy = data;
    const std::size_t byte = rng.UniformInt(copy.size());
    const int bit = static_cast<int>(rng.UniformInt(8));
    copy[byte] = static_cast<std::uint8_t>(copy[byte] ^ (1u << bit));
    EXPECT_NE(Crc16(copy), original);
  }
}

TEST(CrcBitsTest, MatchesByteCrcForWholeOctets) {
  const std::uint8_t bytes[] = {0x12, 0x34, 0x56};
  const BitVec bits = BitVec::FromBytes(bytes);
  EXPECT_EQ(Crc32Bits(bits), Crc32(bytes));
}

TEST(CrcBitsTest, DistinguishesDifferentBitStrings) {
  const BitVec a = BitVec::FromString("10110");
  const BitVec b = BitVec::FromString("10111");
  EXPECT_NE(Crc32Bits(a), Crc32Bits(b));
}

}  // namespace
}  // namespace ppr
