#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ppr {
namespace {

TEST(CdfCollectorTest, BasicSummaries) {
  CdfCollector cdf;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) cdf.Add(x);
  EXPECT_EQ(cdf.Count(), 5u);
  EXPECT_DOUBLE_EQ(cdf.Min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Max(), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.Median(), 3.0);
}

TEST(CdfCollectorTest, QuantileNearestRank) {
  CdfCollector cdf;
  for (int i = 1; i <= 100; ++i) cdf.Add(i);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.9), 90.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 100.0);
}

TEST(CdfCollectorTest, FractionAtOrBelow) {
  CdfCollector cdf;
  for (double x : {1.0, 2.0, 2.0, 3.0}) cdf.Add(x);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAbove(2.0), 0.25);
}

TEST(CdfCollectorTest, InterleavedAddAndQuery) {
  CdfCollector cdf;
  cdf.Add(1.0);
  EXPECT_DOUBLE_EQ(cdf.Median(), 1.0);
  cdf.Add(3.0);
  cdf.Add(2.0);
  EXPECT_DOUBLE_EQ(cdf.Median(), 2.0);
}

TEST(CdfCollectorTest, CdfPointsMonotone) {
  CdfCollector cdf;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) cdf.Add(rng.Normal());
  const auto points = cdf.CdfPoints(32);
  ASSERT_EQ(points.size(), 32u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].first, points[i - 1].first);
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(CdfCollectorTest, AddCountWeightsSamples) {
  CdfCollector cdf;
  cdf.AddCount(1.0, 3);
  cdf.Add(2.0);
  EXPECT_EQ(cdf.Count(), 4u);
  EXPECT_DOUBLE_EQ(cdf.Median(), 1.0);
}

TEST(IntHistogramTest, CdfAndCcdf) {
  IntHistogram h;
  h.Add(0, 50);
  h.Add(1, 30);
  h.Add(5, 20);
  EXPECT_EQ(h.Total(), 100u);
  EXPECT_DOUBLE_EQ(h.CdfAt(0), 0.5);
  EXPECT_DOUBLE_EQ(h.CdfAt(1), 0.8);
  EXPECT_DOUBLE_EQ(h.CdfAt(4), 0.8);
  EXPECT_DOUBLE_EQ(h.CdfAt(5), 1.0);
  EXPECT_DOUBLE_EQ(h.CcdfAbove(1), 0.2);
}

TEST(IntHistogramTest, CountAt) {
  IntHistogram h;
  h.Add(3);
  h.Add(3);
  EXPECT_EQ(h.CountAt(3), 2u);
  EXPECT_EQ(h.CountAt(4), 0u);
}

TEST(FormatCdfTest, EmitsLabelAndRows) {
  CdfCollector cdf;
  cdf.Add(1.0);
  cdf.Add(2.0);
  const std::string out = FormatCdf(cdf, 3, "test-series");
  EXPECT_NE(out.find("# test-series"), std::string::npos);
  EXPECT_NE(out.find('\t'), std::string::npos);
}

}  // namespace
}  // namespace ppr
