// Reed-Solomon codec properties: encode -> erase -> decode recovers
// bit-identical payloads across block shapes (including non-powers of
// two and m > k), at-capacity erasure patterns, and agreement with
// RLNC on identical erasure patterns and seeds.
#include "fec/reed_solomon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "fec/rlnc.h"

namespace ppr::fec {
namespace {

std::vector<std::vector<std::uint8_t>> RandomBlock(Rng& rng, std::size_t n,
                                                   std::size_t bytes) {
  std::vector<std::vector<std::uint8_t>> block(n);
  for (auto& s : block) {
    s.resize(bytes);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  return block;
}

std::vector<std::uint8_t> ToVec(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

// Encodes `block`, erases the given data/parity positions, decodes,
// and checks every source symbol comes back bit-identical.
void RoundTrip(const std::vector<std::vector<std::uint8_t>>& block,
               std::size_t m, const std::vector<std::size_t>& erased_data,
               const std::vector<std::size_t>& erased_parity) {
  const std::size_t k = block.size();
  const std::size_t bytes = block.front().size();
  ReedSolomonEncoder enc(k, m, bytes);
  for (std::size_t i = 0; i < k; ++i) enc.SetSource(i, block[i]);
  enc.Finish();

  ReedSolomonDecoder dec(k, m, bytes);
  for (std::size_t i = 0; i < k; ++i) {
    if (std::find(erased_data.begin(), erased_data.end(), i) ==
        erased_data.end()) {
      dec.AddSourceSpan(i, block[i]);
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (std::find(erased_parity.begin(), erased_parity.end(), j) ==
        erased_parity.end()) {
      dec.AddParitySpan(j, enc.Parity(j));
    }
  }
  ASSERT_TRUE(dec.CanDecode())
      << "k=" << k << " m=" << m << " e_d=" << erased_data.size()
      << " e_p=" << erased_parity.size();
  dec.Decode();
  ASSERT_TRUE(dec.Complete());
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_EQ(ToVec(dec.Symbol(i)), block[i])
        << "k=" << k << " m=" << m << " symbol " << i;
  }
}

TEST(ReedSolomonTest, RoundTripAcrossShapes) {
  Rng rng(7001);
  struct Shape {
    std::size_t k, m, bytes;
  };
  for (const Shape s : {Shape{1, 1, 2}, Shape{2, 1, 8}, Shape{5, 3, 10},
                        Shape{8, 4, 32}, Shape{48, 16, 64}, Shape{100, 37, 20},
                        Shape{256, 128, 8}, Shape{60, 80, 6}}) {
    const auto block = RandomBlock(rng, s.k, s.bytes);
    // At-capacity: erase as many data symbols as parity allows (all
    // parity kept), plus a mixed pattern splitting the budget.
    std::vector<std::size_t> data_idx(s.k);
    std::iota(data_idx.begin(), data_idx.end(), 0);
    for (std::size_t t = data_idx.size(); t > 1; --t) {
      std::swap(data_idx[t - 1], data_idx[rng.UniformInt(t)]);
    }
    const std::size_t full = std::min(s.m, s.k);
    RoundTrip(block, s.m,
              {data_idx.begin(), data_idx.begin() + full}, {});
    const std::size_t e_d = full / 2;
    std::vector<std::size_t> parity_idx(s.m);
    std::iota(parity_idx.begin(), parity_idx.end(), 0);
    for (std::size_t t = parity_idx.size(); t > 1; --t) {
      std::swap(parity_idx[t - 1], parity_idx[rng.UniformInt(t)]);
    }
    const std::size_t e_p = s.m - full;  // keep exactly `full` parities
    RoundTrip(block, s.m, {data_idx.begin(), data_idx.begin() + e_d},
              {parity_idx.begin(),
               parity_idx.begin() + std::min(s.m - e_d, e_p + (full - e_d))});
  }
}

TEST(ReedSolomonTest, NoErasuresIsANoop) {
  Rng rng(7002);
  const auto block = RandomBlock(rng, 12, 16);
  RoundTrip(block, 4, {}, {});
}

TEST(ReedSolomonTest, DuplicateAndBadShapesRejected) {
  Rng rng(7003);
  const auto block = RandomBlock(rng, 4, 8);
  ReedSolomonDecoder dec(4, 2, 8);
  EXPECT_TRUE(dec.AddSourceSpan(1, block[1]));
  EXPECT_FALSE(dec.AddSourceSpan(1, block[1]));  // duplicate
  EXPECT_THROW(dec.AddSourceSpan(9, block[0]), std::invalid_argument);
  EXPECT_THROW(ReedSolomonDecoder(4, 2, 7), std::invalid_argument);
  EXPECT_THROW(ReedSolomonEncoder(0, 2, 8), std::invalid_argument);
  EXPECT_THROW(dec.Decode(), std::logic_error);  // CanDecode() false
}

// RS and RLNC on identical erasure patterns and repair budgets must
// both recover the identical source block (bit-identical payloads).
TEST(ReedSolomonTest, AgreesWithRlncOnIdenticalErasurePatterns) {
  Rng rng(7005);
  const std::size_t k = 24, m = 8, bytes = 16;
  for (int trial = 0; trial < 10; ++trial) {
    const auto block = RandomBlock(rng, k, bytes);

    std::vector<std::size_t> idx(k);
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t t = idx.size(); t > 1; --t) {
      std::swap(idx[t - 1], idx[rng.UniformInt(t)]);
    }
    const std::size_t e_d = 1 + rng.UniformInt(m);
    const std::vector<std::size_t> erased(idx.begin(), idx.begin() + e_d);

    // RS path.
    ReedSolomonEncoder enc(k, m, bytes);
    for (std::size_t i = 0; i < k; ++i) enc.SetSource(i, block[i]);
    enc.Finish();
    ReedSolomonDecoder rs(k, m, bytes);
    for (std::size_t i = 0; i < k; ++i) {
      if (std::find(erased.begin(), erased.end(), i) == erased.end()) {
        rs.AddSourceSpan(i, block[i]);
      }
    }
    for (std::size_t j = 0; j < e_d; ++j) rs.AddParitySpan(j, enc.Parity(j));
    ASSERT_TRUE(rs.CanDecode());
    rs.Decode();

    // RLNC path: same surviving systematic symbols, e_d seeded repairs.
    RlncEncoder rlnc_enc{std::vector<std::vector<std::uint8_t>>(block)};
    RlncDecoder rlnc(k, bytes);
    for (std::size_t i = 0; i < k; ++i) {
      if (std::find(erased.begin(), erased.end(), i) == erased.end()) {
        rlnc.AddSource(i, block[i]);
      }
    }
    std::uint32_t seed = 1000 + static_cast<std::uint32_t>(trial);
    while (!rlnc.Complete()) {
      rlnc.AddRepair(rlnc_enc.MakeRepair(seed++));
    }

    for (std::size_t i = 0; i < k; ++i) {
      const auto want = block[i];
      ASSERT_EQ(ToVec(rs.Symbol(i)), want) << "rs symbol " << i;
      const auto got = rlnc.Symbol(i);
      ASSERT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), want)
          << "rlnc symbol " << i;
    }
  }
}

TEST(ReedSolomonTest, EncoderResetReusesBlock) {
  Rng rng(7006);
  ReedSolomonEncoder enc(4, 2, 8);
  const auto a = RandomBlock(rng, 4, 8);
  for (std::size_t i = 0; i < 4; ++i) enc.SetSource(i, a[i]);
  enc.Finish();
  const auto parity_a = ToVec(enc.Parity(0));
  enc.Reset();
  const auto b = RandomBlock(rng, 4, 8);
  for (std::size_t i = 0; i < 4; ++i) enc.SetSource(i, b[i]);
  enc.Finish();
  EXPECT_NE(ToVec(enc.Parity(0)), parity_a);

  // Parity is deterministic per block content.
  ReedSolomonEncoder enc2(4, 2, 8);
  for (std::size_t i = 0; i < 4; ++i) enc2.SetSource(i, b[i]);
  enc2.Finish();
  EXPECT_EQ(ToVec(enc.Parity(0)), ToVec(enc2.Parity(0)));
  EXPECT_EQ(ToVec(enc.Parity(1)), ToVec(enc2.Parity(1)));
}

}  // namespace
}  // namespace ppr::fec
