#include "phy/despreader.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "phy/channel.h"
#include "phy/spreader.h"

namespace ppr::phy {
namespace {

BitVec RandomOctetBits(Rng& rng, std::size_t octets) {
  BitVec bits;
  for (std::size_t i = 0; i < octets * 8; ++i) {
    bits.PushBack(rng.Bernoulli(0.5));
  }
  return bits;
}

TEST(DespreadHardTest, CleanChipsRoundTrip) {
  const ChipCodebook cb;
  Rng rng(41);
  const BitVec bits = RandomOctetBits(rng, 32);
  const BitVec chips = SpreadBits(cb, bits);
  const auto decoded = DespreadHard(cb, chips);
  ASSERT_EQ(decoded.size(), bits.size() / 4);
  for (const auto& d : decoded) {
    EXPECT_EQ(d.hamming_distance, 0);
    EXPECT_DOUBLE_EQ(d.hint, 0.0);
  }
  EXPECT_EQ(DecodedSymbolsToBits(decoded), bits);
}

TEST(DespreadHardTest, RejectsPartialCodeword) {
  const ChipCodebook cb;
  EXPECT_THROW(DespreadHard(cb, BitVec(31, false)), std::invalid_argument);
}

TEST(DespreadHardTest, HintEqualsInjectedErrorCountWhenSmall) {
  const ChipCodebook cb;
  Rng rng(42);
  for (int errors = 0; errors <= 5; ++errors) {
    const BitVec bits = RandomOctetBits(rng, 2);
    BitVec chips = SpreadBits(cb, bits);
    // Flip `errors` chips of the first codeword.
    for (int e = 0; e < errors; ++e) chips.Flip(static_cast<std::size_t>(e));
    const auto decoded = DespreadHard(cb, chips);
    EXPECT_EQ(decoded[0].hamming_distance, errors);
  }
}

TEST(DespreadHardTest, HeavyCorruptionYieldsLargeHint) {
  const ChipCodebook cb;
  Rng rng(43);
  const BitVec bits = RandomOctetBits(rng, 8);
  BitVec chips = SpreadBits(cb, bits);
  // 50% chip error rate: effectively random chips.
  for (std::size_t i = 0; i < chips.size(); ++i) {
    if (rng.Bernoulli(0.5)) chips.Flip(i);
  }
  const auto decoded = DespreadHard(cb, chips);
  double mean_hint = 0.0;
  for (const auto& d : decoded) mean_hint += d.hint;
  mean_hint /= static_cast<double>(decoded.size());
  // Random 32-chip words sit far from every codeword.
  EXPECT_GT(mean_hint, 6.0);
}

TEST(DespreadSoftTest, HammingKindMatchesHardDecoder) {
  const ChipCodebook cb;
  Rng rng(44);
  const BitVec bits = RandomOctetBits(rng, 16);
  const BitVec chips = SpreadBits(cb, bits);
  std::vector<double> soft(chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) {
    soft[i] = (chips.Get(i) ? 1.0 : -1.0) + rng.Normal(0.0, 0.3);
  }
  BitVec hard;
  for (double v : soft) hard.PushBack(v >= 0.0);

  const auto via_soft = DespreadSoft(cb, soft, HintKind::kHammingDistance);
  const auto via_hard = DespreadHard(cb, hard);
  ASSERT_EQ(via_soft.size(), via_hard.size());
  for (std::size_t i = 0; i < via_soft.size(); ++i) {
    EXPECT_EQ(via_soft[i].symbol, via_hard[i].symbol);
    EXPECT_EQ(via_soft[i].hamming_distance, via_hard[i].hamming_distance);
  }
}

TEST(DespreadSoftTest, CorrelationHintIsMonotoneLowerIsBetter) {
  // A cleaner codeword must not get a worse (higher) correlation hint
  // than a heavily corrupted one, on average (monotonicity contract,
  // section 3.3).
  const ChipCodebook cb;
  Rng rng(45);
  double clean_hint = 0.0, noisy_hint = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const BitVec bits = RandomOctetBits(rng, 1);
    const BitVec chips = SpreadBits(cb, bits);
    std::vector<double> clean(chips.size()), noisy(chips.size());
    for (std::size_t i = 0; i < chips.size(); ++i) {
      const double level = chips.Get(i) ? 1.0 : -1.0;
      clean[i] = level + rng.Normal(0.0, 0.1);
      noisy[i] = level + rng.Normal(0.0, 1.2);
    }
    clean_hint +=
        DespreadSoft(cb, clean, HintKind::kSoftCorrelation)[0].hint;
    noisy_hint +=
        DespreadSoft(cb, noisy, HintKind::kSoftCorrelation)[0].hint;
  }
  EXPECT_LT(clean_hint / trials, noisy_hint / trials);
}

TEST(DespreadSoftTest, MatchedFilterEnergyHintTracksSignalLevel) {
  const ChipCodebook cb;
  Rng rng(46);
  const BitVec bits = RandomOctetBits(rng, 1);
  const BitVec chips = SpreadBits(cb, bits);
  std::vector<double> strong(chips.size()), weak(chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const double level = chips.Get(i) ? 1.0 : -1.0;
    strong[i] = 2.0 * level;
    weak[i] = 0.2 * level;
  }
  const auto s = DespreadSoft(cb, strong, HintKind::kMatchedFilterEnergy);
  const auto w = DespreadSoft(cb, weak, HintKind::kMatchedFilterEnergy);
  EXPECT_LT(s[0].hint, w[0].hint);  // stronger signal -> better hint
}

TEST(ToLogicalNibbleOrderTest, SwapsPairs) {
  std::vector<DecodedSymbol> tx(4);
  tx[0].symbol = 0x7;  // low nibble of octet 0 (transmitted first)
  tx[1].symbol = 0xA;  // high nibble of octet 0
  tx[2].symbol = 0x4;
  tx[3].symbol = 0x3;
  const auto logical = ToLogicalNibbleOrder(tx);
  EXPECT_EQ(logical[0].symbol, 0xA);
  EXPECT_EQ(logical[1].symbol, 0x7);
  EXPECT_EQ(logical[2].symbol, 0x3);
  EXPECT_EQ(logical[3].symbol, 0x4);
}

TEST(ToLogicalNibbleOrderTest, RejectsOddCount) {
  EXPECT_THROW(ToLogicalNibbleOrder(std::vector<DecodedSymbol>(3)),
               std::invalid_argument);
}

// Sweep chip error rates: decoded-symbol error rate should grow with
// chip error rate, and the Hamming hint should separate correct from
// incorrect codewords (the Figure 3 property).
class ChipErrorSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ChipErrorSweepTest, HintSeparatesCorrectFromIncorrect) {
  const ChipErrorRate rate(GetParam());
  const ChipCodebook cb;
  Rng rng(47);
  double correct_hint_sum = 0.0;
  std::size_t correct_n = 0;
  double incorrect_hint_sum = 0.0;
  std::size_t incorrect_n = 0;

  for (int trial = 0; trial < 3000; ++trial) {
    const auto sym = static_cast<std::uint8_t>(rng.UniformInt(16));
    const ChipWord sent = cb.Codeword(sym);
    const ChipWord received = sent ^ SampleChipErrorMask(rng, rate);
    int distance = 0;
    const int decoded = cb.DecodeHard(received, &distance);
    if (decoded == sym) {
      correct_hint_sum += distance;
      ++correct_n;
    } else {
      incorrect_hint_sum += distance;
      ++incorrect_n;
    }
  }
  ASSERT_GT(correct_n, 0u);
  if (incorrect_n > 10) {
    EXPECT_GT(incorrect_hint_sum / static_cast<double>(incorrect_n),
              correct_hint_sum / static_cast<double>(correct_n));
  }
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, ChipErrorSweepTest,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2, 0.3));

}  // namespace
}  // namespace ppr::phy
