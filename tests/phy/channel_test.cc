#include "phy/channel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>

#include "common/rng.h"

namespace ppr::phy {
namespace {

TEST(QFunctionTest, KnownValues) {
  EXPECT_NEAR(QFunction(0.0), 0.5, 1e-12);
  EXPECT_NEAR(QFunction(1.0), 0.158655, 1e-5);
  EXPECT_NEAR(QFunction(3.0), 0.001350, 1e-5);
  EXPECT_NEAR(QFunction(-1.0), 1.0 - 0.158655, 1e-5);
}

TEST(QFunctionTest, Monotone) {
  double prev = 1.0;
  for (double x = -4.0; x <= 4.0; x += 0.25) {
    const double q = QFunction(x);
    EXPECT_LT(q, prev);
    prev = q;
  }
}

TEST(ChipErrorProbabilityTest, HalfAtZeroSnr) {
  EXPECT_DOUBLE_EQ(ChipErrorProbability(0.0), 0.5);
  EXPECT_DOUBLE_EQ(ChipErrorProbability(-1.0), 0.5);
}

TEST(ChipErrorProbabilityTest, DecreasesWithSnr) {
  double prev = 0.5;
  for (double snr_db = -10.0; snr_db <= 10.0; snr_db += 1.0) {
    const double p = ChipErrorProbability(std::pow(10.0, snr_db / 10.0));
    EXPECT_LE(p, prev);
    prev = p;
  }
  EXPECT_LT(prev, 1e-3);
}

TEST(AddAwgnTest, ZeroSigmaIsIdentity) {
  SampleVec samples(16, Sample{1.0, -2.0});
  Rng rng(61);
  AddAwgn(samples, 0.0, rng);
  for (const auto& s : samples) {
    EXPECT_EQ(s, (Sample{1.0, -2.0}));
  }
}

TEST(AddAwgnTest, NoisePowerMatchesSigma) {
  SampleVec samples(200000, Sample{0.0, 0.0});
  Rng rng(62);
  const double sigma = 0.7;
  AddAwgn(samples, sigma, rng);
  double power = 0.0;
  for (const auto& s : samples) power += std::norm(s);
  power /= static_cast<double>(samples.size());
  // Complex noise power = 2 * sigma^2.
  EXPECT_NEAR(power, 2.0 * sigma * sigma, 0.01);
}

TEST(ApplyGainTest, ScalesSamples) {
  SampleVec samples{{1.0, 1.0}, {2.0, -2.0}};
  ApplyGain(samples, 0.5);
  EXPECT_EQ(samples[0], (Sample{0.5, 0.5}));
  EXPECT_EQ(samples[1], (Sample{1.0, -1.0}));
}

TEST(ApplyCarrierOffsetTest, PhaseOnlyRotation) {
  SampleVec samples(8, Sample{1.0, 0.0});
  ApplyCarrierOffset(samples, 0.0, std::numbers::pi / 2);
  for (const auto& s : samples) {
    EXPECT_NEAR(s.real(), 0.0, 1e-12);
    EXPECT_NEAR(s.imag(), 1.0, 1e-12);
  }
}

TEST(ApplyCarrierOffsetTest, FrequencyAdvancesPhase) {
  SampleVec samples(4, Sample{1.0, 0.0});
  ApplyCarrierOffset(samples, 0.25, 0.0);  // quarter cycle per sample
  EXPECT_NEAR(samples[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(samples[1].imag(), 1.0, 1e-12);
  EXPECT_NEAR(samples[2].real(), -1.0, 1e-12);
  EXPECT_NEAR(samples[3].imag(), -1.0, 1e-12);
}

TEST(ApplyCarrierOffsetTest, ZeroOffsetMatchesPerSampleRotationExactly) {
  // With cfo 0 every sample is rotated by one precomputed factor; the
  // result must equal rotating each sample by its own angle, bit for bit.
  Rng rng(72);
  for (const double phase : {0.0, -0.0, 0.3, -2.9, 5.5}) {
    for (const double cfo : {0.0, -0.0}) {
      SampleVec samples(257);
      for (auto& s : samples) s = Sample{rng.Normal(), rng.Normal()};
      SampleVec expected = samples;
      for (std::size_t n = 0; n < expected.size(); ++n) {
        const double theta =
            2.0 * std::numbers::pi * cfo * static_cast<double>(n) + phase;
        expected[n] *= Sample{std::cos(theta), std::sin(theta)};
      }
      ApplyCarrierOffset(samples, cfo, phase);
      ASSERT_EQ(std::memcmp(samples.data(), expected.data(),
                            samples.size() * sizeof(Sample)),
                0)
          << "phase " << phase << ", cfo " << cfo;
    }
  }
}

TEST(ApplyCarrierOffsetTest, PreservesMagnitude) {
  SampleVec samples{{3.0, 4.0}, {-1.0, 2.0}};
  ApplyCarrierOffset(samples, 0.01, 0.3);
  EXPECT_NEAR(std::abs(samples[0]), 5.0, 1e-12);
  EXPECT_NEAR(std::abs(samples[1]), std::sqrt(5.0), 1e-12);
}

TEST(MixIntoTest, SuperposesAtOffset) {
  SampleVec mix(4, Sample{1.0, 0.0});
  const SampleVec signal{{1.0, 1.0}, {2.0, 2.0}};
  MixInto(mix, signal, 2);
  EXPECT_EQ(mix[1], (Sample{1.0, 0.0}));
  EXPECT_EQ(mix[2], (Sample{2.0, 1.0}));
  EXPECT_EQ(mix[3], (Sample{3.0, 2.0}));
}

TEST(MixIntoTest, GrowsDestination) {
  SampleVec mix;
  const SampleVec signal{{1.0, 0.0}};
  MixInto(mix, signal, 5);
  ASSERT_EQ(mix.size(), 6u);
  EXPECT_EQ(mix[4], (Sample{0.0, 0.0}));
  EXPECT_EQ(mix[5], (Sample{1.0, 0.0}));
}

TEST(MixIntoTest, AppliesGain) {
  SampleVec mix(1, Sample{0.0, 0.0});
  const SampleVec signal{{2.0, -2.0}};
  MixInto(mix, signal, 0, 0.25);
  EXPECT_EQ(mix[0], (Sample{0.5, -0.5}));
}

TEST(SampleChipErrorMaskTest, EdgeProbabilities) {
  Rng rng(64);
  EXPECT_EQ(SampleChipErrorMask(rng, ChipErrorRate(0.0)), 0u);
  EXPECT_EQ(SampleChipErrorMask(rng, ChipErrorRate(1.0)), 0xFFFFFFFFu);
  EXPECT_EQ(SampleChipErrorMask(rng, ChipErrorRate(1.5)), 0xFFFFFFFFu);
  EXPECT_EQ(SampleChipErrorMask(rng, ChipErrorRate(-0.5)), 0u);
  // The edges draw nothing, so the stream is where it started.
  EXPECT_EQ(rng.Next(), Rng(64).Next());
}

// The sampler as it read when it took `p` on every call and took the
// logarithm there: the reference the precomputed rate must reproduce
// draw for draw.
std::uint32_t ReferenceChipErrorMask(Rng& rng, double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return 0xFFFFFFFFu;
  std::uint32_t mask = 0;
  if (p < 0.1) {
    const double log1mp = std::log1p(-p);
    double position = 0.0;
    for (;;) {
      double u = rng.UniformDouble();
      if (u < 1e-300) u = 1e-300;
      position += std::floor(std::log(u) / log1mp) + 1.0;
      if (position > 32.0) break;
      mask |= std::uint32_t{1} << (static_cast<std::uint32_t>(position) - 1);
    }
  } else {
    for (int i = 0; i < 32; ++i) {
      if (rng.Bernoulli(p)) mask |= std::uint32_t{1} << i;
    }
  }
  return mask;
}

TEST(SampleChipErrorMaskTest, RateFormDrawsThePerCallFormulasMasks) {
  // Both sampler branches and the 0.1 boundary between them.
  for (const double p : {1e-6, 1e-4, 1e-3, 0.005, 0.008, 0.02, 0.05, 0.08,
                         0.0999, 0.1, 0.3}) {
    const ChipErrorRate rate(p);
    for (const std::uint64_t seed : {1u, 66u, 4242u}) {
      Rng a(seed), b(seed);
      for (int i = 0; i < 5000; ++i) {
        ASSERT_EQ(SampleChipErrorMask(a, rate), ReferenceChipErrorMask(b, p))
            << "p " << p << " seed " << seed << " draw " << i;
      }
      EXPECT_EQ(a.Next(), b.Next()) << "p " << p << " seed " << seed;
    }
  }
}

// The guard that ends a mask without the logarithm, checked at its edge
// with no RNG. With r chips left, u = break_below(r) and the doubles
// just below it are draws the logarithm ends; u = q^r * (1 + 1e-9) is
// one it continues, and it is not below the guard.
TEST(SampleChipErrorMaskTest, BreakGuardEndsOnlyDrawsTheLogarithmEnds) {
  for (const double p :
       {1e-6, 1e-4, 1e-3, 0.005, 0.008, 0.02, 0.05, 0.08, 0.0999}) {
    const ChipErrorRate rate(p);
    const double q = std::exp(rate.log1mp());
    for (int r = 0; r <= 32; ++r) {
      double u = rate.break_below(r);
      for (int below = 0; below <= 8; ++below) {
        ASSERT_GE(std::floor(std::log(u) / rate.log1mp()), r)
            << "p " << p << " r " << r << " u " << u;
        u = std::nextafter(u, 0.0);
      }
      if (r == 0) continue;
      const double continued = std::pow(q, r) * (1.0 + 1e-9);
      ASSERT_LT(std::floor(std::log(continued) / rate.log1mp()), r)
          << "p " << p << " r " << r;
      EXPECT_GE(continued, rate.break_below(r)) << "p " << p << " r " << r;
    }
  }
}

// The sampled error rate must match p across both sampler branches
// (geometric skipping below 0.1, per-chip Bernoulli above).
class ChipErrorMaskTest : public ::testing::TestWithParam<double> {};

TEST_P(ChipErrorMaskTest, MeanErrorRateMatchesP) {
  const double p = GetParam();
  const ChipErrorRate rate(p);
  Rng rng(65);
  std::size_t errors = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    errors += static_cast<std::size_t>(
        std::popcount(SampleChipErrorMask(rng, rate)));
  }
  const double measured =
      static_cast<double>(errors) / (32.0 * trials);
  EXPECT_NEAR(measured, p, std::max(0.002, 0.05 * p));
}

INSTANTIATE_TEST_SUITE_P(Rates, ChipErrorMaskTest,
                         ::testing::Values(0.001, 0.01, 0.05, 0.099, 0.1,
                                           0.2, 0.5, 0.9));

TEST(NoiseSigmaForEcN0Test, InvertsDefinition) {
  // Ec/N0 = A^2 * sps / (2 sigma^2); check round trip.
  const double ec_n0 = 3.16;  // ~5 dB
  const double amplitude = 1.7;
  const int sps = 8;
  const double sigma = NoiseSigmaForEcN0(ec_n0, amplitude, sps);
  const double back = amplitude * amplitude * sps / (2.0 * sigma * sigma);
  EXPECT_NEAR(back, ec_n0, 1e-12);
}

}  // namespace
}  // namespace ppr::phy
