#include "phy/chip_sequences.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.h"

namespace ppr::phy {
namespace {

// Rows of the 802.15.4 symbol-to-chip table (chips c0..c31). Symbol 0 is
// the standard's base sequence; 1 and 8 pin down the rotation and
// odd-chip-inversion derivation rules independently.
constexpr const char* kSymbol0 = "11011001110000110101001000101110";
constexpr const char* kSymbol1 = "11101101100111000011010100100010";
constexpr const char* kSymbol8 = "10001100100101100000011101111011";

std::string CodewordString(const ChipCodebook& cb, int symbol) {
  std::string s;
  for (int i = 0; i < kChipsPerSymbol; ++i) {
    s.push_back(cb.Chip(symbol, i) ? '1' : '0');
  }
  return s;
}

TEST(ChipCodebookTest, MatchesStandardTableRows) {
  const ChipCodebook cb;
  EXPECT_EQ(CodewordString(cb, 0), kSymbol0);
  EXPECT_EQ(CodewordString(cb, 1), kSymbol1);
  EXPECT_EQ(CodewordString(cb, 8), kSymbol8);
}

TEST(ChipCodebookTest, Symbols1Through7AreRotationsOfSymbol0) {
  const ChipCodebook cb;
  for (int s = 1; s < 8; ++s) {
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      const int src = (i - 4 * s + 8 * kChipsPerSymbol) % kChipsPerSymbol;
      EXPECT_EQ(cb.Chip(s, i), cb.Chip(0, src))
          << "symbol " << s << " chip " << i;
    }
  }
}

TEST(ChipCodebookTest, UpperSymbolsInvertOddChips) {
  const ChipCodebook cb;
  for (int s = 0; s < 8; ++s) {
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      const bool expect =
          (i % 2 == 1) ? !cb.Chip(s, i) : cb.Chip(s, i);
      EXPECT_EQ(cb.Chip(s + 8, i), expect);
    }
  }
}

TEST(ChipCodebookTest, AllCodewordsDistinct) {
  const ChipCodebook cb;
  for (int a = 0; a < kNumSymbols; ++a) {
    for (int b = a + 1; b < kNumSymbols; ++b) {
      EXPECT_NE(cb.Codeword(a), cb.Codeword(b));
    }
  }
}

TEST(ChipCodebookTest, CodebookIsQuasiOrthogonal) {
  // The sparse codeword space is what gives Hamming distance its
  // discriminating power as a SoftPHY hint (section 3.2).
  const ChipCodebook cb;
  EXPECT_GE(cb.MinPairwiseDistance(), 12);
}

TEST(ChipCodebookTest, CleanCodewordsDecodeWithZeroDistance) {
  const ChipCodebook cb;
  for (int s = 0; s < kNumSymbols; ++s) {
    int distance = -1;
    EXPECT_EQ(cb.DecodeHard(cb.Codeword(s), &distance), s);
    EXPECT_EQ(distance, 0);
  }
}

TEST(ChipCodebookTest, DecodeToleratesErrorsBelowHalfMinDistance) {
  const ChipCodebook cb;
  const int tolerable = (cb.MinPairwiseDistance() - 1) / 2;
  Rng rng(21);
  for (int s = 0; s < kNumSymbols; ++s) {
    for (int trial = 0; trial < 25; ++trial) {
      ChipWord word = cb.Codeword(s);
      // Flip exactly `tolerable` distinct chips.
      int flipped = 0;
      while (flipped < tolerable) {
        const auto pos = static_cast<int>(rng.UniformInt(kChipsPerSymbol));
        const ChipWord mask = ChipWord{1} << pos;
        if ((word ^ cb.Codeword(s)) & mask) continue;  // already flipped
        word ^= mask;
        ++flipped;
      }
      int distance = -1;
      EXPECT_EQ(cb.DecodeHard(word, &distance), s);
      EXPECT_EQ(distance, tolerable);
    }
  }
}

// Nearest-codeword search written against std::popcount, sharing no
// code with the decoder: the first symbol at the smallest distance.
int ReferenceDecodeHard(const ChipCodebook& cb, ChipWord word,
                        int* distance) {
  int best_symbol = 0;
  int best = kChipsPerSymbol + 1;
  for (int s = 0; s < kNumSymbols; ++s) {
    const int d = std::popcount(word ^ cb.Codeword(s));
    if (d < best) {
      best = d;
      best_symbol = s;
    }
  }
  *distance = best;
  return best_symbol;
}

// Every chip word within three chip errors of a codeword.
std::vector<ChipWord> WordsWithinThreeErrors(ChipWord center) {
  std::vector<ChipWord> words{center};
  for (int a = 0; a < kChipsPerSymbol; ++a) {
    const ChipWord wa = center ^ (ChipWord{1} << a);
    words.push_back(wa);
    for (int b = a + 1; b < kChipsPerSymbol; ++b) {
      const ChipWord wb = wa ^ (ChipWord{1} << b);
      words.push_back(wb);
      for (int c = b + 1; c < kChipsPerSymbol; ++c) {
        words.push_back(wb ^ (ChipWord{1} << c));
      }
    }
  }
  return words;
}

TEST(ChipCodebookTest, DistanceReportedIsMinimumOverCodebook) {
  const ChipCodebook cb;
  std::vector<ChipWord> words;
  for (int s = 0; s < kNumSymbols; ++s) {
    const auto near = WordsWithinThreeErrors(cb.Codeword(s));
    ASSERT_EQ(near.size(), 5489u);  // 1 + 32 + 496 + 4960
    words.insert(words.end(), near.begin(), near.end());
  }
  Rng rng(22);
  for (int trial = 0; trial < 20000; ++trial) {
    words.push_back(static_cast<ChipWord>(rng.Next()));
  }
  std::size_t ties = 0;
  for (const ChipWord word : words) {
    int reported = -1;
    const int symbol = cb.DecodeHard(word, &reported);
    int expected_distance = -1;
    const int expected = ReferenceDecodeHard(cb, word, &expected_distance);
    ASSERT_EQ(symbol, expected) << "word " << word;
    ASSERT_EQ(reported, expected_distance) << "word " << word;
    EXPECT_EQ(ChipHamming(word, cb.Codeword(symbol)), reported);
    // Ties resolve to the smallest symbol: no smaller one is as close.
    int at_minimum = 0;
    for (int s = 0; s < kNumSymbols; ++s) {
      const int d = std::popcount(word ^ cb.Codeword(s));
      ASSERT_GE(d, reported);
      if (d == reported) {
        ASSERT_GE(s, symbol) << "word " << word;
        ++at_minimum;
      }
    }
    if (at_minimum > 1) ++ties;
  }
  // Random words land on ties often; the rule above must be exercised.
  EXPECT_GT(ties, 1000u);
}

TEST(ChipCodebookTest, SoftDecodeAgreesWithHardOnCleanAntipodalInput) {
  const ChipCodebook cb;
  for (int s = 0; s < kNumSymbols; ++s) {
    std::array<double, kChipsPerSymbol> soft{};
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      soft[static_cast<std::size_t>(i)] = cb.Chip(s, i) ? 1.0 : -1.0;
    }
    double corr = 0.0, margin = 0.0;
    EXPECT_EQ(cb.DecodeSoft(soft, &corr, &margin), s);
    EXPECT_DOUBLE_EQ(corr, kChipsPerSymbol);
    EXPECT_GT(margin, 0.0);
  }
}

TEST(ChipCodebookTest, SoftDecodeWeighsReliability) {
  // Corrupt several chips but give the corrupted ones tiny magnitude:
  // soft decoding should still pick the right symbol.
  const ChipCodebook cb;
  Rng rng(23);
  for (int s = 0; s < kNumSymbols; ++s) {
    std::array<double, kChipsPerSymbol> soft{};
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      soft[static_cast<std::size_t>(i)] = cb.Chip(s, i) ? 1.0 : -1.0;
    }
    for (int k = 0; k < 10; ++k) {
      const auto pos = rng.UniformInt(kChipsPerSymbol);
      soft[pos] = -0.05 * soft[pos];  // flipped sign, low confidence
    }
    EXPECT_EQ(cb.DecodeSoft(soft, nullptr, nullptr), s);
  }
}

TEST(ChipCodebookTest, CodewordBitsMatchesChipAccessor) {
  const ChipCodebook cb;
  for (int s = 0; s < kNumSymbols; ++s) {
    const BitVec bits = cb.CodewordBits(s);
    ASSERT_EQ(bits.size(), static_cast<std::size_t>(kChipsPerSymbol));
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      EXPECT_EQ(bits.Get(static_cast<std::size_t>(i)), cb.Chip(s, i));
    }
  }
}

// Exhaustive single-error sweep: any one-chip error must decode to the
// transmitted symbol with distance exactly 1.
class SingleChipErrorTest : public ::testing::TestWithParam<int> {};

TEST_P(SingleChipErrorTest, DecodesCorrectlyWithDistanceOne) {
  const ChipCodebook cb;
  const int s = GetParam();
  for (int pos = 0; pos < kChipsPerSymbol; ++pos) {
    const ChipWord word = cb.Codeword(s) ^ (ChipWord{1} << pos);
    int distance = -1;
    EXPECT_EQ(cb.DecodeHard(word, &distance), s);
    EXPECT_EQ(distance, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSymbols, SingleChipErrorTest,
                         ::testing::Range(0, kNumSymbols));

}  // namespace
}  // namespace ppr::phy
