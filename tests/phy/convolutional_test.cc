#include "phy/convolutional.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ppr::phy {
namespace {

BitVec RandomBits(Rng& rng, std::size_t n) {
  BitVec bits;
  for (std::size_t i = 0; i < n; ++i) bits.PushBack(rng.Bernoulli(0.5));
  return bits;
}

TEST(ConvolutionalTest, EncodeRate) {
  Rng rng(301);
  const BitVec bits = RandomBits(rng, 100);
  const BitVec coded = ConvolutionalEncode(bits);
  EXPECT_EQ(coded.size(), 2 * (100 + 6));
}

TEST(ConvolutionalTest, CleanDecodeRoundTrip) {
  Rng rng(302);
  for (const std::size_t n : {4u, 32u, 200u}) {
    const BitVec bits = RandomBits(rng, n);
    const BitVec coded = ConvolutionalEncode(bits);
    const auto result = ViterbiDecodeHard(coded, n);
    EXPECT_EQ(result.bits, bits);
    EXPECT_DOUBLE_EQ(result.path_metric, 0.0);
  }
}

TEST(ConvolutionalTest, CorrectsScatteredErrors) {
  // Free distance 10: any pattern of <= 2 well-separated errors (and
  // many denser ones) must be corrected.
  Rng rng(303);
  const BitVec bits = RandomBits(rng, 120);
  const BitVec coded = ConvolutionalEncode(bits);
  for (int trial = 0; trial < 50; ++trial) {
    BitVec corrupted = coded;
    const std::size_t a = rng.UniformInt(corrupted.size() / 2);
    const std::size_t b =
        corrupted.size() / 2 + rng.UniformInt(corrupted.size() / 2);
    corrupted.Flip(a);
    corrupted.Flip(b);
    EXPECT_EQ(ViterbiDecodeHard(corrupted, 120).bits, bits);
  }
}

TEST(ConvolutionalTest, CorrectsBscAtFivePercent) {
  Rng rng(304);
  const BitVec bits = RandomBits(rng, 400);
  const BitVec coded = ConvolutionalEncode(bits);
  int perfect = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    BitVec corrupted = coded;
    for (std::size_t i = 0; i < corrupted.size(); ++i) {
      if (rng.Bernoulli(0.05)) corrupted.Flip(i);
    }
    if (ViterbiDecodeHard(corrupted, 400).bits == bits) ++perfect;
  }
  EXPECT_GE(perfect, trials / 2);
}

TEST(ConvolutionalTest, ReliabilityFlagsCorruptedRegion) {
  // SOVA-style margins: bits near a burst of channel errors must carry
  // lower reliability than bits in clean regions.
  Rng rng(306);
  const std::size_t n = 200;
  const BitVec bits = RandomBits(rng, n);
  BitVec coded = ConvolutionalEncode(bits);
  // Concentrated burst in the middle of the codeword stream.
  const std::size_t burst_first = coded.size() / 2;
  for (std::size_t i = 0; i < 8; ++i) coded.Flip(burst_first + i);

  const auto result = ViterbiDecodeHard(coded, n);
  // Average reliability around the burst (info-bit index ~ burst/2) vs
  // the head of the packet.
  const std::size_t burst_bit = burst_first / 2;
  double near = 0.0, far = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    near += result.reliability[burst_bit - 8 + i];
    far += result.reliability[i];
  }
  EXPECT_LT(near, far);
}

TEST(ConvolutionalTest, SoftPhySymbolsFollowMonotonicityContract) {
  Rng rng(307);
  const std::size_t n = 160;  // 40 symbols
  const BitVec bits = RandomBits(rng, n);
  BitVec coded = ConvolutionalEncode(bits);
  for (std::size_t i = 0; i < 10; ++i) coded.Flip(100 + i);

  const auto result = ViterbiDecodeHard(coded, n);
  const auto symbols = ViterbiToSoftPhySymbols(result);
  ASSERT_EQ(symbols.size(), n / 4);
  // Decoded nibbles match the decoded bit stream.
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(symbols[i].symbol, result.bits.ReadUint(i * 4, 4));
  }
  // The corrupted region's symbols have worse (higher) hints than the
  // cleanest symbols.
  double min_hint = 1e18, max_hint = -1e18;
  for (const auto& s : symbols) {
    min_hint = std::min(min_hint, s.hint);
    max_hint = std::max(max_hint, s.hint);
  }
  EXPECT_LT(min_hint, max_hint);
}

TEST(ConvolutionalTest, RejectsLengthMismatch) {
  EXPECT_THROW(ViterbiDecodeHard(BitVec(10, false), 100),
               std::invalid_argument);
}

// Property sweep: round trip across sizes and seeds.
class ConvRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConvRoundTripTest, CleanAndSingleError) {
  Rng rng(310 + GetParam());
  const BitVec bits = RandomBits(rng, GetParam());
  const BitVec coded = ConvolutionalEncode(bits);
  EXPECT_EQ(ViterbiDecodeHard(coded, GetParam()).bits, bits);
  BitVec one_err = coded;
  one_err.Flip(coded.size() / 3);
  EXPECT_EQ(ViterbiDecodeHard(one_err, GetParam()).bits, bits);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConvRoundTripTest,
                         ::testing::Values(8, 40, 100, 256, 500));

}  // namespace
}  // namespace ppr::phy
