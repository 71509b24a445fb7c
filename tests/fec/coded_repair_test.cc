#include "fec/coded_repair.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/crc.h"
#include "common/rng.h"
#include "fec/gf256.h"

namespace ppr::fec {
namespace {

BitVec RandomBody(Rng& rng, std::size_t bits) {
  BitVec body;
  for (std::size_t i = 0; i < bits; ++i) body.PushBack(rng.Bernoulli(0.5));
  return body;
}

TEST(BodySymbolsTest, RoundtripWithTailPadding) {
  Rng rng(401);
  const BitVec body = RandomBody(rng, 4 * 101);  // 101 codewords, ragged tail
  const auto symbols = BodyToSymbols(body, 4, 8);  // 32-bit symbols
  EXPECT_EQ(symbols.size(), (101u + 7u) / 8u);
  for (const auto& s : symbols) EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(SymbolsToBody(symbols, body.size()), body);
}

// The split BodyToSymbols replaced: slice each symbol, zero-pad it and
// pack it MSB-first, one bit at a time.
std::vector<std::vector<std::uint8_t>> BitSerialSymbols(
    const BitVec& body, std::size_t symbol_bits) {
  std::vector<std::vector<std::uint8_t>> symbols;
  for (std::size_t begin = 0; begin < body.size(); begin += symbol_bits) {
    std::vector<std::uint8_t> s(symbol_bits / 8, 0);
    for (std::size_t i = 0; i < symbol_bits && begin + i < body.size(); ++i) {
      if (body.Get(begin + i)) {
        s[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
      }
    }
    symbols.push_back(std::move(s));
  }
  return symbols;
}

TEST(BodySymbolsTest, MatchesBitSerialSplitWithRaggedTails) {
  Rng rng(403);
  for (const std::size_t symbol_bytes : {1u, 2u, 8u, 32u}) {
    const std::size_t codewords_per_symbol = 2 * symbol_bytes;
    for (const std::size_t codewords :
         {0u, 1u, 3u, 15u, 16u, 17u, 63u, 64u, 65u, 129u, 513u}) {
      const BitVec body = RandomBody(rng, 4 * codewords);
      const auto symbols = BodyToSymbols(body, 4, codewords_per_symbol);
      ASSERT_EQ(symbols, BitSerialSymbols(body, 8 * symbol_bytes))
          << "symbol_bytes=" << symbol_bytes << " codewords=" << codewords;
      ASSERT_EQ(SymbolsToBody(symbols, body.size()), body);
    }
  }
}

TEST(BodySymbolsTest, SymbolsToBodyTakesTheLeadingBits) {
  Rng rng(404);
  for (const std::size_t symbol_bytes : {1u, 2u, 8u, 32u}) {
    std::vector<std::vector<std::uint8_t>> symbols(5);
    BitVec all;
    for (auto& s : symbols) {
      s.resize(symbol_bytes);
      for (auto& b : s) b = static_cast<std::uint8_t>(rng.Next());
      for (std::size_t i = 0; i < 8 * symbol_bytes; ++i) {
        all.PushBack((s[i / 8] >> (7 - i % 8)) & 1u);
      }
    }
    for (std::size_t body_bits = 0; body_bits <= all.size(); body_bits += 3) {
      BitVec want;
      for (std::size_t i = 0; i < body_bits; ++i) want.PushBack(all.Get(i));
      ASSERT_EQ(SymbolsToBody(symbols, body_bits), want)
          << "symbol_bytes=" << symbol_bytes << " body_bits=" << body_bits;
    }
    EXPECT_THROW(SymbolsToBody(symbols, all.size() + 1),
                 std::invalid_argument);
  }
}

TEST(BodySymbolsTest, RejectsNonOctetSymbols) {
  const BitVec body(40, false);
  EXPECT_THROW(BodyToSymbols(body, 4, 3), std::invalid_argument);  // 12 bits
}

// Builds a session over a body where `erased` symbols are labeled bad.
struct Fixture {
  BitVec body;
  std::vector<std::vector<std::uint8_t>> truth;
  RlncEncoder encoder;

  Fixture(Rng& rng, std::size_t codewords)
      : body(RandomBody(rng, codewords * 4)),
        truth(BodyToSymbols(body, 4, 8)),
        encoder(truth) {}
};

TEST(CodedRepairSessionTest, DeficitEqualsErasuresAndRepairFills) {
  Rng rng(402);
  Fixture f(rng, 128);  // 16 symbols
  auto received = f.truth;
  std::vector<bool> good(f.truth.size(), true);
  std::vector<double> suspicion(f.truth.size(), 0.0);
  // Erase symbols 2, 7, 8 (receiver's copy is garbage, flagged bad).
  for (const std::size_t s : {2u, 7u, 8u}) {
    good[s] = false;
    suspicion[s] = 16.0;
    for (auto& b : received[s]) b ^= 0xFF;
  }
  CodedRepairSession session(received, good, suspicion);
  EXPECT_EQ(session.Deficit(), 3u);
  EXPECT_FALSE(session.CanDecode());

  std::uint32_t seed = 1;
  while (!session.CanDecode()) {
    session.ConsumeRepair(f.encoder.MakeRepair(seed++));
    ASSERT_LT(seed, 16u);
  }
  const auto decoded = session.Decode();
  EXPECT_EQ(decoded, f.truth);
}

TEST(CodedRepairSessionTest, EvictionRecoversFromConfidentMiss) {
  Rng rng(403);
  Fixture f(rng, 128);
  auto received = f.truth;
  std::vector<bool> good(f.truth.size(), true);
  std::vector<double> suspicion(f.truth.size(), 0.0);
  // Symbol 5 is WRONG but labeled good (a SoftPHY miss); it is merely
  // the most suspect of the trusted rows.
  received[5][1] ^= 0x40;
  suspicion[5] = 5.0;

  CodedRepairSession session(received, good, suspicion);
  ASSERT_TRUE(session.CanDecode());  // full rank, but poisoned
  EXPECT_NE(session.Decode(), f.truth);

  // External verification fails -> evict; one repair then restores rank.
  EXPECT_EQ(session.EvictSuspects(), 1u);
  EXPECT_EQ(session.Deficit(), 1u);
  std::uint32_t seed = 9;
  while (!session.CanDecode()) session.ConsumeRepair(f.encoder.MakeRepair(seed++));
  EXPECT_EQ(session.Decode(), f.truth);
}

TEST(CodedRepairSessionTest, EvictionEscalatesToRepairOnlyDecode) {
  Rng rng(404);
  Fixture f(rng, 64);  // 8 symbols
  auto received = f.truth;
  std::vector<bool> good(f.truth.size(), true);
  const std::vector<double> suspicion(f.truth.size(), 1.0);
  // Every symbol is subtly wrong yet trusted: the worst-case miss.
  for (auto& s : received) s[0] ^= 0x01;

  CodedRepairSession session(received, good, suspicion);
  // Bank enough repairs that eviction can fall back on them entirely.
  std::uint32_t seed = 1;
  for (std::size_t k = 0; k < f.truth.size() + 2; ++k) {
    session.ConsumeRepair(f.encoder.MakeRepair(seed++));
  }
  // Repeated failed verifies: evictions double until nothing is trusted.
  while (session.num_trusted() > 0) session.EvictSuspects();
  ASSERT_TRUE(session.CanDecode());
  EXPECT_EQ(session.Decode(), f.truth);
  EXPECT_EQ(session.EvictSuspects(), 0u);  // nothing left to distrust
}

TEST(PartySeedTest, PartitionsAreDisjointAndSourceKeepsPlainCounters) {
  EXPECT_EQ(PartySeed(0, 1), 1u);
  EXPECT_EQ(PartySeed(0, 7), 7u);
  EXPECT_EQ(PartySeed(1, 1), (1u << 24) | 1u);
  EXPECT_EQ(PartySeed(2, 0xFFFFFF), (2u << 24) | 0xFFFFFFu);
  // A relay counter wraps within its own partition, never into another.
  EXPECT_EQ(PartySeed(1, 0x1000001), (1u << 24) | 1u);
}

TEST(PartySeedTest, ProjectionsInvertThePartitionForArbitraryRelayIds) {
  for (const std::uint32_t party : {0u, 1u, 2u, 7u, 63u, 200u, 255u}) {
    for (const std::uint32_t counter : {0u, 1u, 0x123456u, 0xFFFFFFu}) {
      const std::uint32_t seed =
          PartySeed(static_cast<std::uint8_t>(party), counter);
      EXPECT_EQ(SeedParty(seed), party);
      EXPECT_EQ(SeedCounter(seed), counter);
    }
  }
  // Distinct parties can never collide, whatever their counters do.
  EXPECT_NE(SeedParty(PartySeed(3, 0xFFFFFF)), SeedParty(PartySeed(4, 0)));
}

// Per-party provenance: a poisoned relay's equations are evicted as a
// group (they all share the relay's wrong body image), while another
// relay's stream stays banked.
TEST(CodedRepairSessionTest, EvictionDistrustsAPoisonedRelayAsAGroup) {
  Rng rng(471);
  Fixture f(rng, 96);  // 12 symbols
  auto received = f.truth;
  std::vector<bool> good(f.truth.size(), true);
  std::vector<double> suspicion(f.truth.size(), 0.0);
  good[2] = good[5] = good[9] = false;  // three honest erasures
  for (auto& b : received[2]) b ^= 0xFF;
  CodedRepairSession session(received, good, suspicion);
  ASSERT_EQ(session.Deficit(), 3u);

  const std::vector<bool> have(f.truth.size(), true);
  // Relay 1 is honest: two equations over the true block.
  for (std::uint32_t c = 1; c <= 2; ++c) {
    const std::uint32_t seed = PartySeed(1, c);
    const auto repair = MakeMaskedRepair(f.truth, have, seed);
    session.ConsumeEquation(MaskedCoefficients(seed, have), repair.data,
                            /*suspicion=*/1.0, /*evictable=*/true,
                            /*party=*/1);
  }
  // Relay 2's copy carries a confident miss: every equation it streams
  // is consistent with the wrong body.
  auto poisoned_copy = f.truth;
  poisoned_copy[7][1] ^= 0x40;
  for (std::uint32_t c = 1; c <= 3; ++c) {
    const std::uint32_t seed = PartySeed(2, c);
    const auto repair = MakeMaskedRepair(poisoned_copy, have, seed);
    session.ConsumeEquation(MaskedCoefficients(seed, have), repair.data,
                            /*suspicion=*/4.0, /*evictable=*/true,
                            /*party=*/2);
  }
  ASSERT_EQ(session.equations_from(1), 2u);
  ASSERT_EQ(session.equations_from(2), 3u);
  ASSERT_TRUE(session.CanDecode());
  EXPECT_NE(session.Decode(), f.truth);  // relay 2's poison is in the basis

  // One eviction pass: relay 2 is the most suspect candidate, and its
  // WHOLE stream is distrusted in one step — relay 1's survives.
  EXPECT_EQ(session.EvictSuspects(), 3u);
  EXPECT_EQ(session.equations_from(2), 0u);
  EXPECT_EQ(session.equations_from(1), 2u);
  std::uint32_t source_seed = 1;
  while (!session.CanDecode()) {
    session.ConsumeRepair(f.encoder.MakeRepair(source_seed++));
    ASSERT_LT(source_seed, 16u);
  }
  EXPECT_EQ(session.Decode(), f.truth);
}

TEST(MaskedRepairTest, DestinationReproducesTheMaskedEquation) {
  Rng rng(406);
  Fixture f(rng, 128);
  std::vector<bool> have(f.truth.size(), true);
  have[3] = have[11] = false;  // the relay missed two symbols
  const std::uint32_t seed = PartySeed(1, 9);
  const auto repair = MakeMaskedRepair(f.truth, have, seed);
  EXPECT_EQ(repair.seed, seed);
  // The destination regenerates the same masked coefficients and the
  // equation holds over the true source block.
  const auto coefs = MaskedCoefficients(seed, have);
  EXPECT_EQ(coefs[3], 0);
  EXPECT_EQ(coefs[11], 0);
  std::vector<std::uint8_t> expect(f.truth.front().size(), 0);
  for (std::size_t i = 0; i < f.truth.size(); ++i) {
    for (std::size_t b = 0; b < expect.size(); ++b) {
      expect[b] ^= GfMul(coefs[i], f.truth[i][b]);
    }
  }
  EXPECT_EQ(repair.data, expect);
}

TEST(MaskedRepairTest, MaskedEquationsFillAnErasureTheyCover) {
  Rng rng(407);
  Fixture f(rng, 128);  // 16 symbols
  auto received = f.truth;
  std::vector<bool> good(f.truth.size(), true);
  std::vector<double> suspicion(f.truth.size(), 0.0);
  good[5] = false;
  suspicion[5] = 16.0;
  for (auto& b : received[5]) b ^= 0xFF;
  CodedRepairSession session(received, good, suspicion);
  EXPECT_EQ(session.Deficit(), 1u);

  // A relay that also missed symbol 9 can still cover the erasure at 5.
  std::vector<bool> have(f.truth.size(), true);
  have[9] = false;
  std::uint32_t counter = 1;
  while (!session.CanDecode()) {
    const std::uint32_t seed = PartySeed(1, counter++);
    const auto repair = MakeMaskedRepair(f.truth, have, seed);
    session.ConsumeEquation(MaskedCoefficients(seed, have), repair.data,
                            /*suspicion=*/0.5, /*evictable=*/true);
    ASSERT_LT(counter, 8u);
  }
  EXPECT_EQ(session.Decode(), f.truth);
}

TEST(CodedRepairSessionTest, EvictionDistrustsPoisonedRelayEquations) {
  Rng rng(408);
  Fixture f(rng, 128);
  auto received = f.truth;
  std::vector<bool> good(f.truth.size(), true);
  std::vector<double> suspicion(f.truth.size(), 0.0);
  good[2] = false;  // one honest erasure keeps the deficit open
  suspicion[2] = 16.0;
  for (auto& b : received[2]) b ^= 0xFF;
  CodedRepairSession session(received, good, suspicion);
  EXPECT_EQ(session.Deficit(), 1u);

  // The relay's copy of symbol 7 is wrong-but-confident: its equation
  // passes any wire CRC yet is inconsistent with the true block.
  auto relay_copy = f.truth;
  relay_copy[7][0] ^= 0x20;
  const std::vector<bool> have(f.truth.size(), true);
  const std::uint32_t seed = PartySeed(1, 1);
  const auto poisoned = MakeMaskedRepair(relay_copy, have, seed);
  session.ConsumeEquation(MaskedCoefficients(seed, have), poisoned.data,
                          /*suspicion=*/3.0, /*evictable=*/true);
  ASSERT_TRUE(session.CanDecode());
  EXPECT_NE(session.Decode(), f.truth);  // the poison is in the basis

  // Failed external verify: the relay equation is the most suspect row
  // and the first evicted; a source repair then finishes it honestly.
  EXPECT_EQ(session.EvictSuspects(), 1u);
  EXPECT_EQ(session.Deficit(), 1u);
  std::uint32_t source_seed = 1;
  while (!session.CanDecode()) {
    session.ConsumeRepair(f.encoder.MakeRepair(source_seed++));
    ASSERT_LT(source_seed, 8u);
  }
  EXPECT_EQ(session.Decode(), f.truth);
}

// The full session transcript — decoded bytes, rank/deficit trajectory,
// eviction behavior — must not depend on which GF(256) kernel backend
// is dispatched. The decoded-body CRC is additionally pinned as a
// golden constant so a cross-version drift (Rng, seeds, elimination
// order) cannot hide behind "all backends drifted together".
TEST(CodedRepairSessionTest, TranscriptIsBackendInvariantGolden) {
  constexpr std::uint32_t kGoldenBodyCrc = 0xF5378E50;

  struct Transcript {
    std::vector<std::size_t> deficits;
    std::vector<std::vector<std::uint8_t>> decoded;
    std::uint32_t body_crc = 0;
  };
  const auto run = [] {
    Rng rng(440);
    Fixture f(rng, 136);  // 17 symbols: a tail-padded odd block
    auto received = f.truth;
    std::vector<bool> good(f.truth.size(), true);
    std::vector<double> suspicion(f.truth.size(), 0.0);
    for (const std::size_t s : {1u, 6u, 13u}) {  // honest erasures
      good[s] = false;
      suspicion[s] = 16.0;
      for (auto& b : received[s]) b ^= 0xFF;
    }
    received[4][2] ^= 0x08;  // wrong-but-confident SoftPHY miss
    suspicion[4] = 5.0;

    Transcript t;
    CodedRepairSession session(received, good, suspicion);
    t.deficits.push_back(session.Deficit());

    // A relay with a partial (and slightly poisoned) copy streams two
    // masked equations.
    auto relay_copy = f.truth;
    relay_copy[9][0] ^= 0x20;
    std::vector<bool> have(f.truth.size(), true);
    have[2] = false;
    for (std::uint32_t c = 1; c <= 2; ++c) {
      const std::uint32_t seed = PartySeed(1, c);
      const auto repair = MakeMaskedRepair(relay_copy, have, seed);
      session.ConsumeEquation(MaskedCoefficients(seed, have), repair.data,
                              /*suspicion=*/3.0, /*evictable=*/true);
      t.deficits.push_back(session.Deficit());
    }
    // Source repairs close the remaining deficit; the first decode is
    // poisoned (the miss at 4 or a poisoned relay row is in the basis),
    // so verification fails and eviction rounds run until it is honest.
    std::uint32_t seed = 1;
    while (!session.CanDecode() && seed < 64) {
      session.ConsumeRepair(f.encoder.MakeRepair(seed++));
      t.deficits.push_back(session.Deficit());
    }
    for (int round = 0; round < 16 && session.Decode() != f.truth; ++round) {
      session.EvictSuspects();
      while (!session.CanDecode() && seed < 64) {
        session.ConsumeRepair(f.encoder.MakeRepair(seed++));
      }
      t.deficits.push_back(session.Deficit());
    }
    EXPECT_EQ(session.Decode(), f.truth) << "session failed to converge";
    t.decoded = session.Decode();
    std::vector<std::uint8_t> body;
    for (const auto& s : t.decoded) body.insert(body.end(), s.begin(), s.end());
    t.body_crc = Crc32(body);
    return t;
  };

  const Transcript reference = [&] {
    GfImplScope scope(GfImpl::kScalar);
    return run();
  }();
  EXPECT_EQ(reference.body_crc, kGoldenBodyCrc);
  for (const GfImpl impl : GfAvailableImpls()) {
    GfImplScope scope(impl);
    ASSERT_TRUE(scope.ok());
    const Transcript got = run();
    EXPECT_EQ(got.deficits, reference.deficits) << GfImplName(impl);
    EXPECT_EQ(got.decoded, reference.decoded) << GfImplName(impl);
    EXPECT_EQ(got.body_crc, kGoldenBodyCrc) << GfImplName(impl);
  }
}

TEST(CodedRepairSessionTest, RejectsShapeMismatch) {
  Rng rng(405);
  Fixture f(rng, 64);
  EXPECT_THROW(CodedRepairSession(f.truth, std::vector<bool>(3, true),
                                  std::vector<double>(f.truth.size(), 0.0)),
               std::invalid_argument);
  CodedRepairSession session(f.truth, std::vector<bool>(f.truth.size(), true),
                             std::vector<double>(f.truth.size(), 0.0));
  EXPECT_THROW(session.ConsumeRepair(RepairSymbol{1, {0, 1, 2}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppr::fec
