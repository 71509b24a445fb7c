#include "softphy/classifier.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ppr::softphy {
namespace {

phy::DecodedSymbol Sym(double hint) {
  phy::DecodedSymbol d;
  d.hint = hint;
  d.hamming_distance = static_cast<int>(hint);
  return d;
}

TEST(ThresholdClassifierTest, DefaultEtaIsSix) {
  const ThresholdClassifier c;
  EXPECT_DOUBLE_EQ(c.eta(), 6.0);
}

TEST(ThresholdClassifierTest, BoundaryInclusive) {
  const ThresholdClassifier c(6.0);
  EXPECT_TRUE(c.IsGood(Sym(6.0)));
  EXPECT_FALSE(c.IsGood(Sym(6.5)));
  EXPECT_TRUE(c.IsGood(Sym(0.0)));
}

TEST(ThresholdClassifierTest, LabelsVector) {
  const ThresholdClassifier c(2.0);
  const std::vector<phy::DecodedSymbol> symbols{Sym(0), Sym(3), Sym(2),
                                                Sym(9)};
  const auto labels = c.Label(symbols);
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_TRUE(labels[0]);
  EXPECT_FALSE(labels[1]);
  EXPECT_TRUE(labels[2]);
  EXPECT_FALSE(labels[3]);
}

TEST(ThresholdClassifierTest, MonotoneInEta) {
  // Raising eta can only turn "bad" labels into "good" ones.
  Rng rng(111);
  std::vector<phy::DecodedSymbol> symbols;
  for (int i = 0; i < 200; ++i) {
    symbols.push_back(Sym(static_cast<double>(rng.UniformInt(33))));
  }
  for (double eta = 0.0; eta < 32.0; eta += 1.0) {
    const auto lo = ThresholdClassifier(eta).Label(symbols);
    const auto hi = ThresholdClassifier(eta + 1.0).Label(symbols);
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      EXPECT_TRUE(!lo[i] || hi[i]);  // lo good implies hi good
    }
  }
}

}  // namespace
}  // namespace ppr::softphy
