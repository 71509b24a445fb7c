#include "common/bitvec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"

namespace ppr {
namespace {

TEST(BitVecTest, DefaultIsEmpty) {
  BitVec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVecTest, SizedConstructorInitializesAllBits) {
  BitVec zeros(100, false);
  EXPECT_EQ(zeros.size(), 100u);
  EXPECT_EQ(zeros.PopCount(), 0u);

  BitVec ones(100, true);
  EXPECT_EQ(ones.PopCount(), 100u);
}

TEST(BitVecTest, PushBackAndGet) {
  BitVec v;
  v.PushBack(true);
  v.PushBack(false);
  v.PushBack(true);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.Get(0));
  EXPECT_FALSE(v.Get(1));
  EXPECT_TRUE(v.Get(2));
}

TEST(BitVecTest, SetAndFlip) {
  BitVec v(8, false);
  v.Set(3, true);
  EXPECT_TRUE(v.Get(3));
  v.Flip(3);
  EXPECT_FALSE(v.Get(3));
  v.Flip(0);
  EXPECT_TRUE(v.Get(0));
}

TEST(BitVecTest, FromStringRoundTrip) {
  const std::string s = "1101100111000011";
  const BitVec v = BitVec::FromString(s);
  EXPECT_EQ(v.ToString(), s);
}

TEST(BitVecTest, FromStringRejectsBadCharacters) {
  EXPECT_THROW(BitVec::FromString("10x1"), std::invalid_argument);
}

TEST(BitVecTest, FromBytesIsMsbFirst) {
  const std::uint8_t bytes[] = {0xA5};  // 10100101
  const BitVec v = BitVec::FromBytes(bytes);
  EXPECT_EQ(v.ToString(), "10100101");
}

TEST(BitVecTest, ToBytesRoundTrip) {
  const std::uint8_t bytes[] = {0xDE, 0xAD, 0xBE, 0xEF};
  const BitVec v = BitVec::FromBytes(bytes);
  const auto out = v.ToBytes();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0xDE);
  EXPECT_EQ(out[1], 0xAD);
  EXPECT_EQ(out[2], 0xBE);
  EXPECT_EQ(out[3], 0xEF);
}

TEST(BitVecTest, ToBytesPadsFinalByteWithZeros) {
  BitVec v = BitVec::FromString("111");
  const auto out = v.ToBytes();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0xE0);
}

TEST(BitVecTest, AppendUintMsbFirst) {
  BitVec v;
  v.AppendUint(0b1011, 4);
  EXPECT_EQ(v.ToString(), "1011");
  v.AppendUint(0x3, 4);
  EXPECT_EQ(v.ToString(), "10110011");
}

TEST(BitVecTest, ReadUintInverseOfAppendUint) {
  BitVec v;
  v.AppendUint(0xCAFE, 16);
  v.AppendUint(0x7, 3);
  EXPECT_EQ(v.ReadUint(0, 16), 0xCAFEu);
  EXPECT_EQ(v.ReadUint(16, 3), 0x7u);
}

TEST(BitVecTest, ReadUint64BitBoundary) {
  BitVec v;
  v.AppendUint(0xFEDCBA9876543210ull, 64);
  v.AppendUint(0xA, 4);
  EXPECT_EQ(v.ReadUint(0, 64), 0xFEDCBA9876543210ull);
  EXPECT_EQ(v.ReadUint(64, 4), 0xAu);
  // Unaligned read crossing the word boundary.
  EXPECT_EQ(v.ReadUint(60, 8), 0x0Au);
}

TEST(BitVecTest, SliceExtractsRange) {
  const BitVec v = BitVec::FromString("0011010111");
  const BitVec s = v.Slice(2, 5);
  EXPECT_EQ(s.ToString(), "11010");
}

TEST(BitVecTest, SliceEmptyAndFull) {
  const BitVec v = BitVec::FromString("1010");
  EXPECT_EQ(v.Slice(0, 0).size(), 0u);
  EXPECT_EQ(v.Slice(0, 4), v);
}

TEST(BitVecTest, AppendBitsConcatenates) {
  BitVec a = BitVec::FromString("101");
  const BitVec b = BitVec::FromString("0110");
  a.AppendBits(b);
  EXPECT_EQ(a.ToString(), "1010110");
}

TEST(BitVecTest, HammingDistanceCountsDifferences) {
  const BitVec a = BitVec::FromString("10101010");
  const BitVec b = BitVec::FromString("10011010");
  EXPECT_EQ(a.HammingDistance(b), 2u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
}

TEST(BitVecTest, HammingDistanceRequiresEqualSizes) {
  const BitVec a = BitVec::FromString("101");
  const BitVec b = BitVec::FromString("10");
  EXPECT_THROW(a.HammingDistance(b), std::invalid_argument);
}

TEST(BitVecTest, EqualityComparesContentAndSize) {
  EXPECT_EQ(BitVec::FromString("101"), BitVec::FromString("101"));
  EXPECT_FALSE(BitVec::FromString("101") == BitVec::FromString("1010"));
  EXPECT_FALSE(BitVec::FromString("101") == BitVec::FromString("100"));
}

TEST(BitVecTest, ClearResets) {
  BitVec v = BitVec::FromString("1111");
  v.Clear();
  EXPECT_TRUE(v.empty());
}

TEST(BitVecTest, RandomRoundTripThroughBytes) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 8 * (1 + rng.UniformInt(64));
    BitVec v;
    for (std::size_t i = 0; i < n; ++i) v.PushBack(rng.Bernoulli(0.5));
    const auto bytes = v.ToBytes();
    const BitVec back = BitVec::FromBytes(bytes);
    EXPECT_EQ(v, back);
  }
}

// Property sweep: popcount + hamming identities on random vectors.
class BitVecPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitVecPropertyTest, HammingDistanceEqualsXorPopcount) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.UniformInt(300);
  BitVec a, b;
  for (std::size_t i = 0; i < n; ++i) {
    a.PushBack(rng.Bernoulli(0.5));
    b.PushBack(rng.Bernoulli(0.5));
  }
  std::size_t manual = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (a.Get(i) != b.Get(i)) ++manual;
  }
  EXPECT_EQ(a.HammingDistance(b), manual);
  EXPECT_EQ(b.HammingDistance(a), manual);  // symmetric
}

TEST_P(BitVecPropertyTest, SliceThenAppendReconstructs) {
  Rng rng(GetParam() ^ 0xBEEF);
  const std::size_t n = 2 + rng.UniformInt(200);
  BitVec v;
  for (std::size_t i = 0; i < n; ++i) v.PushBack(rng.Bernoulli(0.5));
  const std::size_t cut = 1 + rng.UniformInt(n - 1);
  BitVec left = v.Slice(0, cut);
  const BitVec right = v.Slice(cut, n - cut);
  left.AppendBits(right);
  EXPECT_EQ(left, v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVecPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(BitVecRangeTest, SliceAndReadUintRejectRangesPastTheEnd) {
  const BitVec v = BitVec::FromString("10110011");
  EXPECT_THROW(v.Slice(4, 8), std::out_of_range);
  EXPECT_THROW(v.Slice(9, 0), std::out_of_range);
  // pos + count would wrap around to a small number.
  EXPECT_THROW(v.Slice(1, std::numeric_limits<std::size_t>::max()),
               std::out_of_range);
  EXPECT_EQ(v.Slice(8, 0).size(), 0u);

  const BitVec ones(64, true);
  EXPECT_THROW(ones.ReadUint(60, 8), std::out_of_range);
  EXPECT_THROW(ones.ReadUint(65, 0), std::out_of_range);
  EXPECT_EQ(ones.ReadUint(64, 0), 0u);
  EXPECT_THROW(ones.ReadUint(0, 65), std::invalid_argument);
}

TEST(BitVecRangeTest, WordHelpersCheckRangeAndWidth) {
  const BitVec ones(64, true);
  EXPECT_THROW(ones.ReadLsbFirst(33, 32), std::out_of_range);
  EXPECT_THROW(ones.ReadLsbFirst(0, 65), std::invalid_argument);
  EXPECT_EQ(ones.ReadLsbFirst(64, 0), 0u);

  BitVec zeros(64);
  EXPECT_THROW(zeros.WriteUint(61, 0xF, 4), std::out_of_range);
  EXPECT_THROW(zeros.WriteUint(65, 0, 0), std::out_of_range);
  EXPECT_THROW(zeros.WriteUint(0, 0, 65), std::invalid_argument);
  EXPECT_EQ(zeros, BitVec(64));

  BitVec empty;
  EXPECT_THROW(empty.AppendUint(0, 65), std::invalid_argument);
  EXPECT_THROW(empty.AppendLsbFirst(0, 65), std::invalid_argument);
  EXPECT_TRUE(empty.empty());
}

// Bit-serial reference versions of the word-wise operations, built only
// from Get, Set and PushBack: one bit per step, as BitVec once did it.
namespace oracle {

BitVec Slice(const BitVec& v, std::size_t pos, std::size_t count) {
  BitVec out;
  for (std::size_t i = 0; i < count; ++i) out.PushBack(v.Get(pos + i));
  return out;
}

void AppendBits(BitVec& v, const BitVec& other) {
  const std::size_t n = other.size();
  for (std::size_t i = 0; i < n; ++i) v.PushBack(other.Get(i));
}

void AppendUint(BitVec& v, std::uint64_t value, unsigned width) {
  for (unsigned i = width; i-- > 0;) v.PushBack((value >> i) & 1u);
}

void AppendLsbFirst(BitVec& v, std::uint64_t value, unsigned width) {
  for (unsigned i = 0; i < width; ++i) v.PushBack((value >> i) & 1u);
}

std::uint64_t ReadUint(const BitVec& v, std::size_t pos, unsigned width) {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < width; ++i) {
    value = (value << 1) | static_cast<std::uint64_t>(v.Get(pos + i));
  }
  return value;
}

std::uint64_t ReadLsbFirst(const BitVec& v, std::size_t pos,
                           unsigned width) {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(v.Get(pos + i)) << i;
  }
  return value;
}

void WriteUint(BitVec& v, std::size_t pos, std::uint64_t value,
               unsigned width) {
  for (unsigned b = 0; b < width; ++b) {
    v.Set(pos + b, (value >> (width - 1 - b)) & 1u);
  }
}

std::vector<std::uint8_t> ToBytes(const BitVec& v) {
  std::vector<std::uint8_t> out((v.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v.Get(i)) out[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
  }
  return out;
}

BitVec FromBytes(std::span<const std::uint8_t> bytes) {
  BitVec v;
  for (std::uint8_t b : bytes) AppendUint(v, b, 8);
  return v;
}

}  // namespace oracle

constexpr std::size_t kLengths[] = {0,  1,  7,  8,   9,   31,  32,
                                    33, 63, 64, 65, 127, 128, 129};
constexpr unsigned kWidths[] = {0, 1, 4, 8, 31, 32, 33, 63, 64};

BitVec RandomBits(Rng& rng, std::size_t n) {
  BitVec v;
  for (std::size_t i = 0; i < n; ++i) v.PushBack(rng.Bernoulli(0.5));
  return v;
}

// A copy built bit by bit: equal to `v` under the whole-word operator==
// only if `v` keeps the bits past its end zero.
BitVec PushBackCopy(const BitVec& v) {
  BitVec out;
  for (std::size_t i = 0; i < v.size(); ++i) out.PushBack(v.Get(i));
  return out;
}

std::uint64_t LowBits(std::uint64_t value, unsigned width) {
  return width == 64 ? value : value & ((std::uint64_t{1} << width) - 1);
}

TEST(BitVecOracleTest, SliceMatchesAtEveryOffsetAndCount) {
  Rng rng(1601);
  for (const std::size_t n : kLengths) {
    const BitVec v = RandomBits(rng, n);
    for (std::size_t pos = 0; pos <= n; ++pos) {
      for (std::size_t count = 0; pos + count <= n; ++count) {
        const BitVec got = v.Slice(pos, count);
        ASSERT_EQ(got, oracle::Slice(v, pos, count))
            << "n=" << n << " pos=" << pos << " count=" << count;
        ASSERT_EQ(got, PushBackCopy(got));
      }
    }
  }
}

TEST(BitVecOracleTest, ReadsMatchAtEveryOffsetAndWidth) {
  Rng rng(1602);
  for (const std::size_t n : kLengths) {
    const BitVec v = RandomBits(rng, n);
    for (std::size_t pos = 0; pos <= n; ++pos) {
      for (const unsigned width : kWidths) {
        if (pos + width > n) continue;
        ASSERT_EQ(v.ReadUint(pos, width), oracle::ReadUint(v, pos, width))
            << "n=" << n << " pos=" << pos << " width=" << width;
        ASSERT_EQ(v.ReadLsbFirst(pos, width),
                  oracle::ReadLsbFirst(v, pos, width))
            << "n=" << n << " pos=" << pos << " width=" << width;
      }
    }
  }
}

TEST(BitVecOracleTest, WriteUintMatchesAtEveryOffsetAndWidth) {
  Rng rng(1603);
  for (const std::size_t n : kLengths) {
    const BitVec v = RandomBits(rng, n);
    for (std::size_t pos = 0; pos <= n; ++pos) {
      for (const unsigned width : kWidths) {
        if (pos + width > n) continue;
        // Bits above `width` are set too; the write must drop them.
        const std::uint64_t value = rng.Next();
        BitVec got = v;
        got.WriteUint(pos, value, width);
        BitVec want = v;
        oracle::WriteUint(want, pos, value, width);
        ASSERT_EQ(got, want)
            << "n=" << n << " pos=" << pos << " width=" << width;
        ASSERT_EQ(got, PushBackCopy(got));
        ASSERT_EQ(got.ReadUint(pos, width), LowBits(value, width));
      }
    }
  }
}

TEST(BitVecOracleTest, AppendsMatchOntoEveryTailOffset) {
  Rng rng(1604);
  for (const std::size_t n : kLengths) {
    const BitVec prefix = RandomBits(rng, n);
    for (const unsigned width : kWidths) {
      const std::uint64_t value = rng.Next();
      BitVec got = prefix;
      got.AppendUint(value, width);
      BitVec want = prefix;
      oracle::AppendUint(want, value, width);
      ASSERT_EQ(got, want) << "n=" << n << " width=" << width;
      ASSERT_EQ(got, PushBackCopy(got));

      got = prefix;
      got.AppendLsbFirst(value, width);
      want = prefix;
      oracle::AppendLsbFirst(want, value, width);
      ASSERT_EQ(got, want) << "n=" << n << " width=" << width;
      ASSERT_EQ(got, PushBackCopy(got));
      ASSERT_EQ(got.ReadLsbFirst(n, width), LowBits(value, width));
    }
    for (const std::size_t m : kLengths) {
      const BitVec other = RandomBits(rng, m);
      BitVec got = prefix;
      got.AppendBits(other);
      BitVec want = prefix;
      oracle::AppendBits(want, other);
      ASSERT_EQ(got, want) << "n=" << n << " m=" << m;
      ASSERT_EQ(got, PushBackCopy(got));
    }
    BitVec doubled = prefix;
    doubled.AppendBits(doubled);
    BitVec want = prefix;
    oracle::AppendBits(want, prefix);
    ASSERT_EQ(doubled, want) << "self-append, n=" << n;
  }
}

TEST(BitVecOracleTest, BytesMatchAtEveryLength) {
  Rng rng(1605);
  for (std::size_t n = 0; n <= 200; ++n) {
    const BitVec v = RandomBits(rng, n);
    ASSERT_EQ(v.ToBytes(), oracle::ToBytes(v)) << "n=" << n;
  }
  for (std::size_t bytes = 0; bytes <= 25; ++bytes) {
    std::vector<std::uint8_t> data(bytes);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
    const BitVec got = BitVec::FromBytes(data);
    ASSERT_EQ(got, oracle::FromBytes(data)) << "bytes=" << bytes;
    ASSERT_EQ(got, PushBackCopy(got));
  }
}

TEST(BitVecOracleTest, LsbFirstMatchesChipWordOrder) {
  // Bit i of the value is bit i of the vector: a 32-chip word with chip
  // 0 in its LSB reads and appends whole.
  const std::uint32_t word = 0x6077AE6Cu;
  BitVec v;
  v.AppendLsbFirst(word, 32);
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(v.Get(i), ((word >> i) & 1u) != 0);
  }
  EXPECT_EQ(v.ReadLsbFirst(0, 32), word);
}

}  // namespace
}  // namespace ppr
