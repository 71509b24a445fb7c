#include "common/popcount.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.h"

namespace ppr {
namespace {

static_assert(PopCount(0) == 0);
static_assert(PopCount(~std::uint64_t{0}) == 64);
static_assert(PopCount(0xAAAAAAAAu) == 16);

TEST(PopCountTest, MatchesStdPopcount) {
  EXPECT_EQ(PopCount(0), std::popcount(std::uint64_t{0}));
  EXPECT_EQ(PopCount(~std::uint64_t{0}), 64);
  EXPECT_EQ(PopCount(0xFFFFFFFFu), 32);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    EXPECT_EQ(PopCount(bit), 1) << "bit " << i;
    EXPECT_EQ(PopCount(~bit), 63) << "bit " << i;
  }
  Rng rng(5);
  for (int trial = 0; trial < 100000; ++trial) {
    const std::uint64_t x = rng.Next();
    ASSERT_EQ(PopCount(x), std::popcount(x)) << "word " << x;
    // Sparse and dense words too, where the byte sums sit at the ends
    // of their range.
    const std::uint64_t sparse = x & rng.Next() & rng.Next();
    ASSERT_EQ(PopCount(sparse), std::popcount(sparse)) << "word " << sparse;
    ASSERT_EQ(PopCount(~sparse), std::popcount(~sparse)) << "word " << ~sparse;
  }
}

}  // namespace
}  // namespace ppr
