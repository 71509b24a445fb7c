// RlncDecoder's borrowed-span ingest: the span forms must be
// bit-equivalent to the owning-vector forms they shadow, batch ingest
// must match serial ingest, and allocation recycling (Reset parks rows
// for reuse) must not change decode results.
#include "fec/rlnc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

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

TEST(EquationSinkTest, RepairCoefficientsIntoMatchesAllocatingForm) {
  for (std::uint32_t seed : {0u, 1u, 42u, 0xFFFFFFFFu}) {
    const auto want = RepairCoefficients(seed, 24);
    std::vector<std::uint8_t> got(24);
    RepairCoefficientsInto(seed, got);
    EXPECT_EQ(got, want) << "seed=" << seed;
  }
}

// The same lossy decode driven through AddEquation (owning vectors)
// and AddEquationSpan (borrowed spans) lands on identical rank
// trajectories and identical recovered symbols.
TEST(EquationSinkTest, SpanIngestMatchesOwningIngest) {
  Rng rng(907);
  const auto block = RandomBlock(rng, 12, 40);
  const RlncEncoder encoder(block);

  RlncDecoder owning(12, 40);
  RlncDecoder span(12, 40);
  // Half the systematic symbols arrive; repairs carry the rest.
  for (std::size_t i = 0; i < 12; i += 2) {
    EXPECT_TRUE(owning.AddSource(i, block[i]));
    EXPECT_TRUE(span.AddSourceSpan(i, block[i]));
  }
  for (std::uint32_t seed = 1; !owning.Complete(); ++seed) {
    const RepairSymbol repair = encoder.MakeRepair(seed);
    const auto coefs = RepairCoefficients(seed, 12);
    const bool a = owning.AddEquation(coefs, repair.data);
    const bool b = span.AddEquationSpan(coefs, repair.data);
    EXPECT_EQ(a, b) << "seed=" << seed;
    EXPECT_EQ(owning.rank(), span.rank());
  }
  ASSERT_TRUE(span.Complete());
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(Decoded(owning, i), block[i]);
    EXPECT_EQ(Decoded(span, i), block[i]);
  }
}

TEST(EquationSinkTest, AddRepairBatchMatchesSerialAddRepair) {
  Rng rng(919);
  const auto block = RandomBlock(rng, 10, 32);
  const RlncEncoder encoder(block);
  std::vector<RepairSymbol> repairs;
  for (std::uint32_t seed = 1; seed <= 14; ++seed) {
    repairs.push_back(encoder.MakeRepair(seed));
  }
  RlncDecoder serial(10, 32);
  RlncDecoder batched(10, 32);
  std::size_t serial_gained = 0;
  for (const auto& r : repairs) {
    if (serial.Complete()) break;  // the batch form stops here too
    if (serial.AddRepair(r)) ++serial_gained;
  }
  const std::size_t batch_gained = batched.AddRepairBatch(repairs);
  EXPECT_EQ(batch_gained, serial_gained);
  EXPECT_EQ(batched.rank(), serial.rank());
  ASSERT_TRUE(batched.Complete());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(Decoded(batched, i), block[i]);
  }
}

// Reset() recycles pivot rows through the spare pool; the second
// decode must be exactly as good as a fresh decoder's.
TEST(EquationSinkTest, ResetRecyclesRowsAcrossDecodes) {
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
