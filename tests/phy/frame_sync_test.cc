#include "phy/frame_sync.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "frame/frame_format.h"
#include "phy/channel.h"
#include "phy/spreader.h"

namespace ppr::phy {
namespace {

SampleVec ModulateOctets(const ModemConfig& config,
                         const std::vector<std::uint8_t>& octets) {
  const ChipCodebook cb;
  const MskModulator mod(config);
  return mod.Modulate(SpreadBits(cb, BitVec::FromBytes(octets)));
}

ModemConfig TestModem() {
  ModemConfig config;
  config.samples_per_chip = 4;
  return config;
}

TEST(WaveformCorrelatorTest, PerfectMatchScoresOne) {
  const auto ref = ModulateOctets(TestModem(), frame::PreamblePatternOctets());
  const WaveformCorrelator corr(ref);
  EXPECT_NEAR(corr.ScoreAt(ref, 0), 1.0, 1e-9);
}

TEST(WaveformCorrelatorTest, ScoreBoundedByOne) {
  Rng rng(81);
  const auto ref = ModulateOctets(TestModem(), frame::PreamblePatternOctets());
  const WaveformCorrelator corr(ref);
  SampleVec junk(ref.size() * 3);
  for (auto& s : junk) s = Sample{rng.Normal(), rng.Normal()};
  for (std::size_t n = 0; n + ref.size() <= junk.size(); n += 7) {
    const double score = corr.ScoreAt(junk, n);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0 + 1e-9);
  }
}

TEST(WaveformCorrelatorTest, FindsEmbeddedPatternUnderNoise) {
  Rng rng(82);
  const auto config = TestModem();
  const auto ref = ModulateOctets(config, frame::PreamblePatternOctets());
  const WaveformCorrelator corr(ref);

  const std::size_t offset = 777;
  SampleVec air(offset + ref.size() + 500, Sample{0.0, 0.0});
  MixInto(air, ref, offset);
  AddAwgn(air, 0.4, rng);

  const auto hits = corr.FindPeaks(air, 0.6, ref.size());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sample_offset, offset);
  EXPECT_GT(hits[0].score, 0.6);
}

TEST(WaveformCorrelatorTest, InvariantToPhaseRotation) {
  const auto config = TestModem();
  const auto ref = ModulateOctets(config, frame::PreamblePatternOctets());
  const WaveformCorrelator corr(ref);
  SampleVec rotated = ref;
  ApplyCarrierOffset(rotated, 0.0, 1.1);  // constant phase offset
  EXPECT_NEAR(corr.ScoreAt(rotated, 0), 1.0, 1e-9);
}

TEST(WaveformCorrelatorTest, PreambleAndPostambleAreDistinguishable) {
  // The two sync patterns must not trigger each other's correlators,
  // otherwise a postamble could masquerade as a preamble (section 4
  // requires a well-known sequence that "differentiates it from a
  // preamble").
  const auto config = TestModem();
  const auto pre = ModulateOctets(config, frame::PreamblePatternOctets());
  const auto post = ModulateOctets(config, frame::PostamblePatternOctets());
  const WaveformCorrelator pre_corr(pre);
  const WaveformCorrelator post_corr(post);
  EXPECT_LT(pre_corr.ScoreAt(post, 0), 0.5);
  EXPECT_LT(post_corr.ScoreAt(pre, 0), 0.5);
}

TEST(WaveformCorrelatorTest, FindPeaksSeparatesTwoPatterns) {
  Rng rng(83);
  const auto config = TestModem();
  const auto ref = ModulateOctets(config, frame::PreamblePatternOctets());
  const WaveformCorrelator corr(ref);

  const std::size_t first = 200, second = 200 + 3 * ref.size();
  SampleVec air(second + ref.size() + 200, Sample{0.0, 0.0});
  MixInto(air, ref, first);
  MixInto(air, ref, second);
  AddAwgn(air, 0.2, rng);

  const auto hits = corr.FindPeaks(air, 0.6, ref.size());
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].sample_offset, first);
  EXPECT_EQ(hits[1].sample_offset, second);
}

TEST(WaveformCorrelatorTest, NearbyPeaksKeepTheStronger) {
  // Two candidate offsets within the separation window: FindPeaks must
  // keep the higher-scoring one.
  const auto config = TestModem();
  const auto ref = ModulateOctets(config, frame::PreamblePatternOctets());
  const WaveformCorrelator corr(ref);
  SampleVec air(ref.size() + 100, Sample{0.0, 0.0});
  MixInto(air, ref, 50);
  const auto hits = corr.FindPeaks(air, 0.3, ref.size());
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].sample_offset, 50u);
}

TEST(WaveformCorrelatorTest, CaptureWideSeparationKeepsTheMaximum) {
  // With the separation window as wide as the capture, FindPeaks reports
  // only the best-scoring offset.
  const auto config = TestModem();
  const auto ref = ModulateOctets(config, frame::PreamblePatternOctets());
  const WaveformCorrelator corr(ref);
  SampleVec air(ref.size() + 64, Sample{0.0, 0.0});
  MixInto(air, ref, 17);
  const auto hits = corr.FindPeaks(air, 0.3, air.size());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sample_offset, 17u);
  EXPECT_NEAR(hits[0].score, 1.0, 1e-9);
  EXPECT_EQ(hits[0].score, corr.ScoreAt(air, 17));
}

TEST(WaveformCorrelatorTest, EmptyOrShortInputYieldsNoHits) {
  const auto config = TestModem();
  const auto ref = ModulateOctets(config, frame::PreamblePatternOctets());
  const WaveformCorrelator corr(ref);
  const SampleVec tiny(10, Sample{1.0, 0.0});
  EXPECT_TRUE(corr.FindPeaks(tiny, 0.5, 4).empty());
  EXPECT_EQ(corr.ScoreAt(tiny, 0), 0.0);
}

// Sweep noise levels: detection must hold at moderate noise and the
// score must degrade monotonically on average.
class SyncNoiseSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SyncNoiseSweepTest, DetectsPatternAtModerateNoise) {
  const double sigma = GetParam();
  Rng rng(84);
  const auto config = TestModem();
  const auto ref = ModulateOctets(config, frame::PreamblePatternOctets());
  const WaveformCorrelator corr(ref);

  int detected = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    SampleVec air(ref.size() + 400, Sample{0.0, 0.0});
    MixInto(air, ref, 123);
    AddAwgn(air, sigma, rng);
    // One hit: the best offset, if it scores at least 0.5.
    const auto hits = corr.FindPeaks(air, 0.5, air.size());
    if (hits.size() == 1 && hits[0].sample_offset == 123) ++detected;
  }
  EXPECT_GE(detected, 18) << "sigma = " << sigma;
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, SyncNoiseSweepTest,
                         ::testing::Values(0.1, 0.3, 0.5));

// FindPeaks against the exhaustive scan it replaces: ScoreAt at every
// offset, then the same peak picking. The hits must match bit for bit.
struct Scored {
  double score = 0.0;
  double phase = 0.0;
};

std::vector<Scored> ScoreEveryOffset(const WaveformCorrelator& corr,
                                     const SampleVec& rx) {
  std::vector<Scored> scored;
  for (std::size_t n = 0; n + corr.ReferenceLength() <= rx.size(); ++n) {
    Scored s;
    s.score = corr.ScoreAt(rx, n, &s.phase);
    scored.push_back(s);
  }
  return scored;
}

std::vector<SyncHit> PickPeaks(const std::vector<Scored>& scored,
                               double threshold, std::size_t min_separation) {
  std::vector<SyncHit> hits;
  for (std::size_t n = 0; n < scored.size(); ++n) {
    const auto [score, phase] = scored[n];
    if (score < threshold) continue;
    if (!hits.empty() && n - hits.back().sample_offset < min_separation) {
      if (score > hits.back().score) hits.back() = SyncHit{n, score, phase};
      continue;
    }
    hits.push_back(SyncHit{n, score, phase});
  }
  return hits;
}

void ExpectBitIdentical(const std::vector<SyncHit>& got,
                        const std::vector<SyncHit>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sample_offset, want[i].sample_offset) << what << " #" << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
        << what << " #" << i << ": " << got[i].score << " vs " << want[i].score;
    EXPECT_EQ(std::memcmp(&got[i].phase, &want[i].phase, sizeof(double)), 0)
        << what << " #" << i << ": " << got[i].phase << " vs " << want[i].phase;
  }
}

// Every correlator's FindPeaks, and their FindPeaksTogether, against
// the exhaustive scan, at thresholds 0, 0.3 and 0.6 and at ties:
// thresholds equal to exact scores (each scan's best one and a random
// one of at least 0.3), which those offsets must reach. Separations are
// `m` and 1.
void ExpectEveryWayMatchesScan(
    const std::vector<const WaveformCorrelator*>& correlators,
    const SampleVec& rx, std::size_t m, Rng& rng, const std::string& what) {
  std::vector<std::vector<Scored>> scans;
  std::vector<double> thresholds = {0.0, 0.3, 0.6};
  for (const WaveformCorrelator* corr : correlators) {
    const auto& scored = scans.emplace_back(ScoreEveryOffset(*corr, rx));
    std::vector<double> above;
    for (const auto& s : scored) {
      if (s.score >= 0.3) above.push_back(s.score);
    }
    if (!above.empty()) {
      thresholds.push_back(*std::max_element(above.begin(), above.end()));
      thresholds.push_back(above[rng.UniformInt(above.size())]);
    }
  }
  for (const double threshold : thresholds) {
    // Threshold 0 rescores every offset: one separation is enough.
    for (const std::size_t separation : {m, std::size_t{1}}) {
      if (threshold <= 0.0 && separation == 1) continue;
      const std::string where = what + ", threshold " +
                                std::to_string(threshold) + ", separation " +
                                std::to_string(separation);
      const auto together =
          FindPeaksTogether(correlators, rx, threshold, separation);
      ASSERT_EQ(together.size(), correlators.size()) << where;
      for (std::size_t c = 0; c < correlators.size(); ++c) {
        const auto want = PickPeaks(scans[c], threshold, separation);
        const std::string which = where + ", correlator " + std::to_string(c);
        ExpectBitIdentical(
            correlators[c]->FindPeaks(rx, threshold, separation), want, which);
        ExpectBitIdentical(together[c], want, which + ", together");
      }
    }
  }
}

struct Capture {
  std::string name;
  SampleVec samples;
};

class FindPeaksDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FindPeaksDifferentialTest, HitsEqualExhaustiveScan) {
  ModemConfig config;
  config.samples_per_chip = GetParam();
  const auto pre = ModulateOctets(config, frame::PreamblePatternOctets());
  const auto post = ModulateOctets(config, frame::PostamblePatternOctets());
  const std::size_t m = pre.size();
  ASSERT_EQ(post.size(), m);
  // FindPeaks correlates in FFT blocks of bit_ceil(2M) samples, each
  // yielding the `step` offsets whose windows it holds.
  const std::size_t block = std::bit_ceil(2 * m);
  const std::size_t step = block - m + 1;

  Rng rng(85 + static_cast<std::uint64_t>(GetParam()));
  const auto noise = [&](std::size_t n, double sigma) {
    SampleVec air(n, Sample{0.0, 0.0});
    AddAwgn(air, sigma, rng);
    return air;
  };
  const auto place = [&](SampleVec& air, const SampleVec& pattern,
                         std::size_t at, double gain) {
    SampleVec wave = pattern;
    const double phase = rng.UniformDouble(0.0, 2.0 * std::numbers::pi);
    ApplyCarrierOffset(wave, 0.0, phase);
    MixInto(air, wave, at, gain);
  };

  std::vector<Capture> captures;
  captures.push_back({"noise only", noise(block + step + 123, 1.0)});
  captures.push_back({"silence", SampleVec(block + 77, Sample{0.0, 0.0})});
  {
    // Faint patterns on both sides of a burst 1e12 times stronger in
    // power, in the burst's FFT blocks: the rounding of the FFT and of
    // the running window energy there is far above the faint windows'.
    SampleVec air = noise(2 * block, 1e-6);
    place(air, pre, 100, 1e-3);
    place(air, post, 150 + m, 1e-3);
    MixInto(air, noise(m, 1e3), block - m / 2);
    place(air, pre, block + m / 2 + 100, 1e-3);
    const auto faint = PickPeaks(ScoreEveryOffset(WaveformCorrelator(pre), air),
                                 0.6, m);
    ASSERT_EQ(faint.size(), 2u);
    EXPECT_EQ(faint[0].sample_offset, 100u);
    EXPECT_EQ(faint[1].sample_offset, block + m / 2 + 100);
    captures.push_back({"faint frame beside loud burst", std::move(air)});
  }
  captures.push_back({"length M-1", noise(m - 1, 0.3)});
  {
    SampleVec air = noise(m, 0.3);
    place(air, pre, 0, 1.0);
    captures.push_back({"length M", std::move(air)});
  }
  {
    SampleVec air = noise(m + 1, 0.3);
    place(air, post, 1, 1.0);
    captures.push_back({"length M+1", std::move(air)});
  }
  {
    SampleVec air = noise(block, 0.3);
    place(air, pre, block - m, 1.0);
    place(air, post, 200, 1.0);
    captures.push_back({"exactly one block", std::move(air)});
  }
  for (const std::size_t shift : {std::size_t{0}, std::size_t{2}}) {
    // Peaks on the last and first offsets of neighbouring blocks.
    SampleVec air = noise(2 * step + m, 0.3);
    place(air, pre, step - 1 + shift, 1.0);
    place(air, post, 2 * step - 2 + shift, 1.0);
    captures.push_back({"across a block boundary +" + std::to_string(shift),
                        std::move(air)});
  }
  for (int k = 0; k < 5; ++k) {
    const std::size_t length = m + rng.UniformInt(block);
    SampleVec air = noise(length, rng.UniformDouble(0.05, 1.0));
    const auto patterns = rng.UniformInt(4);
    for (std::uint64_t p = 0; p < patterns && length > m; ++p) {
      place(air, rng.Bernoulli(0.5) ? pre : post, rng.UniformInt(length - m),
            rng.UniformDouble(0.2, 2.0));
    }
    captures.push_back({"random #" + std::to_string(k), std::move(air)});
  }

  const WaveformCorrelator pre_corr(pre), post_corr(post);
  for (const auto& capture : captures) {
    ExpectEveryWayMatchesScan({&pre_corr, &post_corr}, capture.samples, m,
                              rng, capture.name);
  }
}

INSTANTIATE_TEST_SUITE_P(SamplesPerChip, FindPeaksDifferentialTest,
                         ::testing::Values(2, 4, 8));

TEST(FindPeaksTogetherTest, TinyReferencesMatchExhaustiveScan) {
  // References of 1-5 samples against captures of 1-12 run FFTs of 1-16
  // points, including the special-cased sizes 1 and 2.
  Rng rng(86);
  const auto random_wave = [&](std::size_t n) {
    SampleVec wave(n);
    for (auto& s : wave) s = Sample{rng.Normal(), rng.Normal()};
    return wave;
  };
  for (std::size_t m = 1; m <= 5; ++m) {
    for (std::size_t length = 1; length <= 12; ++length) {
      for (int trial = 0; trial < 3; ++trial) {
        const SampleVec ref = random_wave(m);
        const WaveformCorrelator a(random_wave(m)), b(ref);
        SampleVec rx = random_wave(length);
        // Two trials of three hold a strong copy of b's reference, so
        // some offsets score high.
        if (trial > 0 && length >= m) {
          MixInto(rx, ref, rng.UniformInt(length - m + 1), 4.0);
        }
        ExpectEveryWayMatchesScan({&a, &b}, rx, m, rng,
                                  "M " + std::to_string(m) + ", length " +
                                      std::to_string(length) + ", trial " +
                                      std::to_string(trial));
      }
    }
  }
}

TEST(FindPeaksTogetherTest, UnequalReferenceLengthsThrow) {
  const WaveformCorrelator a(SampleVec(4, Sample{1.0, 0.0}));
  const WaveformCorrelator b(SampleVec(5, Sample{1.0, 0.0}));
  const SampleVec rx(32, Sample{1.0, 0.0});
  const std::vector<const WaveformCorrelator*> both = {&a, &b};
  EXPECT_THROW(FindPeaksTogether(both, rx, 0.5, 1), std::invalid_argument);
  EXPECT_EQ(FindPeaksTogether({}, rx, 0.5, 1).size(), 0u);
}

}  // namespace
}  // namespace ppr::phy
