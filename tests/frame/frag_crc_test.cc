#include "frame/frag_crc.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ppr::frame {
namespace {

TEST(FragmentPlanTest, EvenSplit) {
  const FragmentPlan plan(100, 4);
  EXPECT_EQ(plan.num_fragments(), 4u);
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_EQ(plan.FragmentSize(f), 25u);
    EXPECT_EQ(plan.FragmentOffset(f), 25u * f);
  }
}

TEST(FragmentPlanTest, UnevenSplitFrontLoadsRemainder) {
  const FragmentPlan plan(10, 3);  // 4, 3, 3
  EXPECT_EQ(plan.FragmentSize(0), 4u);
  EXPECT_EQ(plan.FragmentSize(1), 3u);
  EXPECT_EQ(plan.FragmentSize(2), 3u);
  EXPECT_EQ(plan.FragmentOffset(0), 0u);
  EXPECT_EQ(plan.FragmentOffset(1), 4u);
  EXPECT_EQ(plan.FragmentOffset(2), 7u);
}

TEST(FragmentPlanTest, ClampsFragmentsToPayloadSize) {
  const FragmentPlan plan(3, 10);
  EXPECT_EQ(plan.num_fragments(), 3u);  // no empty fragments
}

TEST(FragmentPlanTest, RejectsZeroFragments) {
  EXPECT_THROW(FragmentPlan(10, 0), std::invalid_argument);
}

TEST(FragmentPlanTest, OffsetsTileThePayload) {
  Rng rng(95);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(2000);
    const std::size_t f = 1 + rng.UniformInt(50);
    const FragmentPlan plan(n, f);
    std::size_t covered = 0;
    for (std::size_t i = 0; i < plan.num_fragments(); ++i) {
      EXPECT_EQ(plan.FragmentOffset(i), covered);
      covered += plan.FragmentSize(i);
    }
    EXPECT_EQ(covered, n);
  }
}

}  // namespace
}  // namespace ppr::frame
