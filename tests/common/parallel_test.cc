#include "common/parallel.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace ppr {
namespace {

TEST(ParallelForTest, RunsEveryIndexOnceAtAnyThreadCount) {
  for (const std::size_t threads : {0u, 1u, 3u, 8u}) {
    std::vector<int> runs(37, 0);
    ParallelFor(runs.size(), threads, [&](std::size_t j) { ++runs[j]; });
    EXPECT_EQ(runs, std::vector<int>(37, 1)) << threads << " threads";
  }
  ParallelFor(0, 4, [](std::size_t) { ADD_FAILURE() << "no jobs to run"; });
}

// A throwing job reaches the caller at every thread count, and the
// lowest failing index is the one rethrown, whichever worker failed
// first.
TEST(ParallelForTest, RethrowsTheLowestFailingJob) {
  for (const std::size_t threads : {1u, 4u}) {
    try {
      ParallelFor(64, threads, [](std::size_t j) {
        if (j % 10 == 7) throw std::runtime_error(std::to_string(j));
      });
      ADD_FAILURE() << "nothing thrown at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7") << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace ppr
