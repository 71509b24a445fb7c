#include "fec/rlnc.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "fec/gf256.h"

namespace ppr::fec {
namespace {

std::vector<std::uint8_t> Decoded(const RlncDecoder& d, std::size_t i) {
  const auto sym = d.Symbol(i);
  return {sym.begin(), sym.end()};
}

std::vector<std::vector<std::uint8_t>> RandomBlock(Rng& rng, std::size_t n,
                                                   std::size_t bytes) {
  std::vector<std::vector<std::uint8_t>> block(n);
  for (auto& s : block) {
    s.resize(bytes);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  return block;
}

TEST(RlncTest, RepairCoefficientsAreDeterministicPerSeed) {
  const auto a = RepairCoefficients(42, 16);
  const auto b = RepairCoefficients(42, 16);
  const auto c = RepairCoefficients(43, 16);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 16u);
}

TEST(RlncTest, RepairCoefficientsIntoMatchesAllocatingForm) {
  for (std::uint32_t seed : {0u, 1u, 42u, 0xFFFFFFFFu}) {
    const auto want = RepairCoefficients(seed, 24);
    std::vector<std::uint8_t> got(24);
    RepairCoefficientsInto(seed, got);
    EXPECT_EQ(got, want) << "seed=" << seed;
  }
}

TEST(RlncTest, SystematicRoundtripNoLoss) {
  Rng rng(301);
  const auto block = RandomBlock(rng, 12, 20);
  RlncDecoder decoder(12, 20);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_TRUE(decoder.AddSource(i, block[i]));
  }
  ASSERT_TRUE(decoder.Complete());
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(Decoded(decoder, i), block[i]);
  }
}

// Systematic encode -> erase a fraction of source symbols -> decode from
// the survivors plus repair symbols.
void RoundtripAtLoss(double loss, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 32, bytes = 16;
  const auto block = RandomBlock(rng, n, bytes);
  RlncEncoder encoder(block);

  RlncDecoder decoder(n, bytes);
  std::size_t erased = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(loss)) {
      ++erased;
    } else {
      decoder.AddSource(i, block[i]);
    }
  }
  std::uint32_t next_seed = 1;
  std::size_t repairs_used = 0;
  while (!decoder.Complete()) {
    decoder.AddRepair(encoder.MakeRepair(next_seed++));
    ++repairs_used;
    ASSERT_LT(repairs_used, n + 16u) << "decoder failed to reach full rank";
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(Decoded(decoder, i), block[i]) << "loss=" << loss;
  }
  // Random GF(256) combinations are independent with high probability:
  // barely more repairs than erasures.
  EXPECT_LE(repairs_used, erased + 2) << "loss=" << loss;
}

TEST(RlncTest, RoundtripLightLoss) { RoundtripAtLoss(0.1, 302); }
TEST(RlncTest, RoundtripModerateLoss) { RoundtripAtLoss(0.4, 303); }
TEST(RlncTest, RoundtripHeavyLoss) { RoundtripAtLoss(0.8, 304); }

TEST(RlncTest, DecodesFromRepairAlone) {
  Rng rng(305);
  const std::size_t n = 10, bytes = 8;
  const auto block = RandomBlock(rng, n, bytes);
  RlncEncoder encoder(block);
  RlncDecoder decoder(n, bytes);
  std::uint32_t seed = 7;
  while (!decoder.Complete()) {
    decoder.AddRepair(encoder.MakeRepair(seed++));
    ASSERT_LT(seed, 7u + n + 8u);
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(Decoded(decoder, i), block[i]);
}

TEST(RlncTest, DuplicatesDoNotIncreaseRank) {
  Rng rng(306);
  const auto block = RandomBlock(rng, 8, 4);
  RlncEncoder encoder(block);
  RlncDecoder decoder(8, 4);
  EXPECT_TRUE(decoder.AddSource(3, block[3]));
  EXPECT_FALSE(decoder.AddSource(3, block[3]));
  const auto repair = encoder.MakeRepair(99);
  EXPECT_TRUE(decoder.AddRepair(repair));
  EXPECT_FALSE(decoder.AddRepair(repair));
  EXPECT_EQ(decoder.rank(), 2u);
}

TEST(RlncTest, RejectsShapeMismatch) {
  RlncDecoder decoder(4, 8);
  EXPECT_THROW(decoder.AddEquation(std::vector<std::uint8_t>(3, 1),
                                   std::vector<std::uint8_t>(8, 0)),
               std::invalid_argument);
  EXPECT_THROW(decoder.AddEquation(std::vector<std::uint8_t>(4, 1),
                                   std::vector<std::uint8_t>(7, 0)),
               std::invalid_argument);
  EXPECT_THROW(RlncEncoder({}), std::invalid_argument);
  EXPECT_THROW(RlncEncoder({{1, 2}, {3}}), std::invalid_argument);
}

// A source index past the block is a checked error in every build
// type, and it leaves the basis untouched.
TEST(RlncTest, AddSourceRejectsIndexPastTheBlock) {
  RlncDecoder decoder(4, 8);
  const std::vector<std::uint8_t> data(8, 0x5A);
  EXPECT_THROW(decoder.AddSource(4, data), std::invalid_argument);
  EXPECT_THROW(decoder.AddSource(7, data), std::invalid_argument);
  EXPECT_EQ(decoder.rank(), 0u);
  EXPECT_THROW(decoder.AddSource(0, std::vector<std::uint8_t>(7, 0)),
               std::invalid_argument);
  EXPECT_TRUE(decoder.AddSource(3, data));
  EXPECT_EQ(decoder.rank(), 1u);
}

// Once complete, AddRepair returns false without looking at the
// symbol, so surplus repairs cost nothing.
TEST(RlncTest, AddRepairIsANoOpOnceComplete) {
  Rng rng(311);
  const auto block = RandomBlock(rng, 4, 8);
  RlncDecoder decoder(4, 8);
  for (std::size_t i = 0; i < 4; ++i) decoder.AddSource(i, block[i]);
  ASSERT_TRUE(decoder.Complete());
  EXPECT_FALSE(decoder.AddRepair(RepairSymbol{7, {1, 2, 3}}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(Decoded(decoder, i), block[i]);
  RlncDecoder fresh(4, 8);
  EXPECT_THROW(fresh.AddRepair(RepairSymbol{7, {1, 2, 3}}),
               std::invalid_argument);
}

// Encode and decode must be bit-identical on every compiled GF(256)
// backend: the same repair symbols on the wire, the same rank
// progression, the same decoded block.
TEST(RlncTest, EncodeAndDecodeAreBackendInvariant) {
  struct Transcript {
    std::vector<RepairSymbol> repairs;
    std::vector<std::size_t> ranks;
    std::vector<std::vector<std::uint8_t>> decoded;
  };
  const auto run = [] {
    Rng rng(305);
    const std::size_t n = 24, bytes = 33;  // odd size: vector tails in play
    std::vector<std::vector<std::uint8_t>> block(n);
    for (auto& s : block) {
      s.resize(bytes);
      for (auto& b : s) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    const RlncEncoder encoder(block);
    Transcript t;
    RlncDecoder decoder(n, bytes);
    for (std::size_t i = 8; i < n; ++i) decoder.AddSource(i, block[i]);
    std::uint32_t seed = 1;
    while (!decoder.Complete()) {
      t.repairs.push_back(encoder.MakeRepair(seed++));
      decoder.AddRepair(t.repairs.back());
      t.ranks.push_back(decoder.rank());
    }
    for (std::size_t i = 0; i < n; ++i) t.decoded.push_back(Decoded(decoder, i));
    return t;
  };

  const Transcript reference = [&] {
    GfImplScope scope(GfImpl::kScalar);
    return run();
  }();
  EXPECT_EQ(reference.decoded.size(), 24u);
  for (const GfImpl impl : GfAvailableImpls()) {
    GfImplScope scope(impl);
    ASSERT_TRUE(scope.ok());
    const Transcript got = run();
    EXPECT_EQ(got.repairs, reference.repairs) << GfImplName(impl);
    EXPECT_EQ(got.ranks, reference.ranks) << GfImplName(impl);
    EXPECT_EQ(got.decoded, reference.decoded) << GfImplName(impl);
  }
}

TEST(RlncTest, ResetReturnsToRankZeroAndDecodesAgain) {
  Rng rng(99);
  const auto block = RandomBlock(rng, 8, 16);
  RlncEncoder encoder(block);
  RlncDecoder decoder(8, 16);
  for (std::uint32_t s = 0; decoder.rank() < 8; ++s) {
    decoder.AddRepair(encoder.MakeRepair(s));
  }
  ASSERT_TRUE(decoder.Complete());

  // Reset keeps the shape but drops the basis; the decoder then
  // decodes a different ingest order to the same symbols.
  decoder.Reset();
  EXPECT_EQ(decoder.rank(), 0u);
  EXPECT_FALSE(decoder.Complete());
  for (std::size_t i = 0; i < 4; ++i) decoder.AddSource(i, block[i]);
  for (std::uint32_t s = 100; decoder.rank() < 8; ++s) {
    decoder.AddRepair(encoder.MakeRepair(s));
  }
  ASSERT_TRUE(decoder.Complete());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(Decoded(decoder, i), block[i]);
}

// Reset() keeps the row buffers for the next decode; every later
// decode must be exactly as good as a fresh decoder's.
TEST(RlncTest, ResetRecyclesRowsAcrossDecodes) {
  Rng rng(929);
  RlncDecoder decoder(9, 48);
  for (int round = 0; round < 3; ++round) {
    const auto block = RandomBlock(rng, 9, 48);
    const RlncEncoder encoder(block);
    for (std::uint32_t seed = 1; !decoder.Complete(); ++seed) {
      decoder.AddRepair(encoder.MakeRepair(PartySeed(0, seed + round * 64)));
    }
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_EQ(Decoded(decoder, i), block[i]) << "round=" << round;
    }
    decoder.Reset();
    EXPECT_EQ(decoder.rank(), 0u);
  }
}

}  // namespace
}  // namespace ppr::fec
