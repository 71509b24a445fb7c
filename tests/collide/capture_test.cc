// Collision capture model: geometry, clean-region fidelity, XOR
// superposition words, determinism, and the pair-XOR decoder.
#include "collide/capture.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "phy/chip_sequences.h"

namespace ppr::collide {
namespace {

BitVec RandomBody(Rng& rng, std::size_t codewords) {
  BitVec bits;
  for (std::size_t i = 0; i < codewords; ++i) {
    bits.AppendUint(rng.UniformInt(16), 4);
  }
  return bits;
}

std::uint8_t NibbleOf(const BitVec& body, std::size_t codeword) {
  return static_cast<std::uint8_t>(body.ReadUint(codeword * 4, 4));
}

TEST(CollisionCaptureTest, ZeroNoiseCleanRegionsDecodeExactly) {
  const phy::ChipCodebook codebook;
  Rng rng(7);
  const BitVec a = RandomBody(rng, 24);
  const BitVec b = RandomBody(rng, 10);
  const auto c = SimulateCollisionCapture(codebook, a, b, /*offset=*/5,
                                          /*chip_error_p=*/0.0, rng);
  EXPECT_EQ(c.a_codewords, 24u);
  EXPECT_EQ(c.b_codewords, 10u);
  EXPECT_EQ(c.overlap_begin, 5u);
  EXPECT_EQ(c.overlap_end, 15u);
  EXPECT_EQ(c.overlap_chips.size(), 10u);
  for (std::size_t i = 0; i < c.a_codewords; ++i) {
    if (i >= c.overlap_begin && i < c.overlap_end) continue;
    EXPECT_EQ(c.a_symbols[i].symbol, NibbleOf(a, i)) << "codeword " << i;
    EXPECT_EQ(c.a_symbols[i].hamming_distance, 0) << "codeword " << i;
  }
  // B lies fully inside A here, so there is no tail.
  EXPECT_TRUE(c.b_tail.empty());

  // With a late offset B extends past A's end; the tail (codewords
  // past A's end) is clean too.
  const auto late = SimulateCollisionCapture(codebook, a, b, /*offset=*/20,
                                             /*chip_error_p=*/0.0, rng);
  ASSERT_EQ(late.b_tail.size(), late.b_codewords - late.TailBegin());
  for (std::size_t t = 0; t < late.b_tail.size(); ++t) {
    EXPECT_EQ(late.b_tail[t].symbol, NibbleOf(b, late.TailBegin() + t));
  }
}

TEST(CollisionCaptureTest, ZeroNoiseOverlapWordsAreExactXor) {
  const phy::ChipCodebook codebook;
  Rng rng(11);
  const BitVec a = RandomBody(rng, 16);
  const BitVec b = RandomBody(rng, 16);
  const auto c = SimulateCollisionCapture(codebook, a, b, /*offset=*/3,
                                          /*chip_error_p=*/0.0, rng);
  for (std::size_t i = c.overlap_begin; i < c.overlap_end; ++i) {
    const phy::ChipWord expected =
        codebook.Codeword(NibbleOf(a, i)) ^
        codebook.Codeword(NibbleOf(b, c.BIndexAt(i)));
    EXPECT_EQ(c.overlap_chips[i - c.overlap_begin], expected)
        << "overlap position " << i;
  }
}

TEST(CollisionCaptureTest, OverlapSymbolsCarryInfiniteHint) {
  const phy::ChipCodebook codebook;
  Rng rng(13);
  const BitVec a = RandomBody(rng, 12);
  const BitVec b = RandomBody(rng, 12);
  const auto c = SimulateCollisionCapture(codebook, a, b, 4, 0.01, rng);
  const auto initial = InitialSymbolsFromCapture(c);
  ASSERT_EQ(initial.size(), c.a_codewords);
  for (std::size_t i = c.overlap_begin; i < c.overlap_end; ++i) {
    EXPECT_EQ(initial[i].hint, std::numeric_limits<double>::infinity());
  }
  for (std::size_t i = 0; i < c.overlap_begin; ++i) {
    EXPECT_LT(initial[i].hint, std::numeric_limits<double>::infinity());
  }
}

TEST(CollisionCaptureTest, DeterministicGivenRngSeed) {
  const phy::ChipCodebook codebook;
  Rng body_rng(17);
  const BitVec a = RandomBody(body_rng, 20);
  const BitVec b = RandomBody(body_rng, 20);
  Rng r1(99), r2(99);
  const auto c1 = SimulateCollisionCapture(codebook, a, b, 6, 0.02, r1);
  const auto c2 = SimulateCollisionCapture(codebook, a, b, 6, 0.02, r2);
  EXPECT_EQ(c1.overlap_chips, c2.overlap_chips);
  ASSERT_EQ(c1.a_symbols.size(), c2.a_symbols.size());
  for (std::size_t i = 0; i < c1.a_symbols.size(); ++i) {
    EXPECT_EQ(c1.a_symbols[i].symbol, c2.a_symbols[i].symbol);
    EXPECT_EQ(c1.a_symbols[i].hint, c2.a_symbols[i].hint);
  }
}

TEST(DecodeXorNibbleTest, ExactForEveryPairAtZeroNoise) {
  const phy::ChipCodebook codebook;
  for (int x = 0; x < 16; ++x) {
    for (int y = 0; y < 16; ++y) {
      const phy::ChipWord word =
          codebook.Codeword(x) ^ codebook.Codeword(y);
      int distance = -1;
      const std::uint8_t got = DecodeXorNibble(codebook, word, &distance);
      EXPECT_EQ(got, static_cast<std::uint8_t>(x ^ y))
          << "pair (" << x << ", " << y << ")";
      EXPECT_EQ(distance, 0);
    }
  }
}

TEST(DecodeXorNibbleTest, ToleratesLightChipNoise) {
  const phy::ChipCodebook codebook;
  Rng rng(23);
  std::size_t correct = 0;
  constexpr std::size_t kTrials = 200;
  for (std::size_t t = 0; t < kTrials; ++t) {
    const int x = static_cast<int>(rng.UniformInt(16));
    const int y = static_cast<int>(rng.UniformInt(16));
    phy::ChipWord word = codebook.Codeword(x) ^ codebook.Codeword(y);
    // Flip two random chips.
    word ^= phy::ChipWord{1} << rng.UniformInt(phy::kChipsPerSymbol);
    word ^= phy::ChipWord{1} << rng.UniformInt(phy::kChipsPerSymbol);
    int distance = 0;
    const std::uint8_t got = DecodeXorNibble(codebook, word, &distance);
    EXPECT_LE(distance, 2);
    if (got == static_cast<std::uint8_t>(x ^ y)) ++correct;
  }
  // The pair code's distance spectrum is weaker than the codebook's,
  // but 2-chip noise should still decode correctly most of the time.
  EXPECT_GE(correct, kTrials * 3 / 4);
}

// Brute-force pair search written against std::popcount, sharing no
// code with the decoder: over every ordered pair (x, y) in order, the
// first at the smallest distance. Its XOR is the decoder's answer,
// since a minimal (x, y) with x > y comes after the minimal (y, x).
std::uint8_t ReferenceXorNibble(const phy::ChipCodebook& codebook,
                                phy::ChipWord word, int* distance,
                                bool* xor_tie) {
  int best = phy::kChipsPerSymbol + 1;
  int best_xor = 0;
  *xor_tie = false;
  for (int x = 0; x < 16; ++x) {
    for (int y = 0; y < 16; ++y) {
      const int d =
          std::popcount(word ^ codebook.Codeword(x) ^ codebook.Codeword(y));
      if (d < best) {
        best = d;
        best_xor = x ^ y;
        *xor_tie = false;
      } else if (d == best && (x ^ y) != best_xor) {
        *xor_tie = true;
      }
    }
  }
  *distance = best;
  return static_cast<std::uint8_t>(best_xor);
}

TEST(DecodeXorNibbleTest, MatchesBruteForcePairSearch) {
  const phy::ChipCodebook codebook;
  // Every superposition of two codewords under every error pattern of
  // weight <= 2, then random words.
  std::vector<phy::ChipWord> words;
  for (int x = 0; x < 16; ++x) {
    for (int y = x; y < 16; ++y) {
      const phy::ChipWord sum = codebook.Codeword(x) ^ codebook.Codeword(y);
      for (int a = -1; a < phy::kChipsPerSymbol; ++a) {
        const phy::ChipWord wa = a < 0 ? sum : sum ^ (phy::ChipWord{1} << a);
        words.push_back(wa);
        for (int b = a + 1; a >= 0 && b < phy::kChipsPerSymbol; ++b) {
          words.push_back(wa ^ (phy::ChipWord{1} << b));
        }
      }
    }
  }
  ASSERT_EQ(words.size(), 136u * 529u);
  Rng rng(29);
  for (int trial = 0; trial < 20000; ++trial) {
    words.push_back(static_cast<phy::ChipWord>(rng.Next()));
  }
  std::size_t xor_ties = 0;
  for (const phy::ChipWord word : words) {
    int distance = -1;
    const std::uint8_t got = DecodeXorNibble(codebook, word, &distance);
    int expected_distance = -1;
    bool xor_tie = false;
    const std::uint8_t expected =
        ReferenceXorNibble(codebook, word, &expected_distance, &xor_tie);
    ASSERT_EQ(got, expected) << "word " << word;
    ASSERT_EQ(distance, expected_distance) << "word " << word;
    if (xor_tie) ++xor_ties;
  }
  // Pairs at one distance with different XORs are common; the order
  // rule above must be exercised.
  EXPECT_GT(xor_ties, 1000u);
}

TEST(DrawCollisionEpisodeTest, OffsetsDistinctAndDeterministic) {
  const phy::ChipCodebook codebook;
  Rng body_rng(31);
  const BitVec a = RandomBody(body_rng, 32);
  CollisionEpisodeParams params;
  params.b_octets = 12;
  params.chip_error_p = 0.0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng r1(seed), r2(seed);
    const auto e1 = DrawCollisionEpisode(codebook, a, params, r1);
    const auto e2 = DrawCollisionEpisode(codebook, a, params, r2);
    EXPECT_NE(e1.first.offset, e1.second.offset) << "seed " << seed;
    EXPECT_GE(e1.first.offset, 1u);
    EXPECT_GE(e1.second.offset, 1u);
    EXPECT_EQ(e1.first.offset, e2.first.offset);
    EXPECT_EQ(e1.second.offset, e2.second.offset);
    EXPECT_EQ(e1.b_body.ToBytes(), e2.b_body.ToBytes());
  }
}

TEST(CollisionCaptureTest, RejectsDegenerateGeometry) {
  const phy::ChipCodebook codebook;
  Rng rng(37);
  const BitVec a = RandomBody(rng, 8);
  const BitVec b = RandomBody(rng, 4);
  EXPECT_THROW(SimulateCollisionCapture(codebook, a, b, 8, 0.0, rng),
               std::invalid_argument);
  EXPECT_THROW(SimulateCollisionCapture(codebook, a, BitVec{}, 2, 0.0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppr::collide
