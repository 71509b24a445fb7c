#include "phy/msk_modem.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "phy/channel.h"

namespace ppr::phy {
namespace {

BitVec RandomChips(Rng& rng, std::size_t n) {
  BitVec chips;
  for (std::size_t i = 0; i < n; ++i) chips.PushBack(rng.Bernoulli(0.5));
  return chips;
}

// Soft values of `num_chips` chips, chip 0 at sample 0, through the
// receiver's demodulation path at zero carrier phase: the complex
// correlation's real part for even chips (I) and its imaginary part for
// odd chips (Q), as ReceiverPipeline::DecodeSymbols takes them.
std::vector<double> DemodulateChips(const MskDemodulator& demod,
                                    const SampleVec& samples,
                                    std::size_t num_chips) {
  const std::int64_t sps = demod.config().samples_per_chip;
  std::vector<double> soft(num_chips);
  for (std::size_t k = 0; k < num_chips; ++k) {
    const Sample c = demod.DemodulateChipComplexAt(
        samples, static_cast<std::int64_t>(k) * sps);
    soft[k] = k % 2 == 0 ? c.real() : c.imag();
  }
  return soft;
}

TEST(MskModulatorTest, OutputLength) {
  ModemConfig config;
  config.samples_per_chip = 4;
  const MskModulator mod(config);
  const BitVec chips(100, false);
  EXPECT_EQ(mod.Modulate(chips).size(), mod.NumSamples(100));
  EXPECT_EQ(mod.NumSamples(100), 101u * 4u);
}

TEST(MskModulatorTest, RejectsTooFewSamplesPerChip) {
  ModemConfig config;
  config.samples_per_chip = 1;
  EXPECT_THROW(MskModulator mod(config), std::invalid_argument);
}

TEST(MskModulatorTest, EvenChipsOnIChannelOddOnQ) {
  ModemConfig config;
  config.samples_per_chip = 8;
  const MskModulator mod(config);

  // Single chip 0 (even index): all energy on I, none on Q.
  BitVec one_chip;
  one_chip.PushBack(true);
  const auto wave = mod.Modulate(one_chip);
  double i_energy = 0.0, q_energy = 0.0;
  for (const auto& s : wave) {
    i_energy += s.real() * s.real();
    q_energy += s.imag() * s.imag();
  }
  EXPECT_GT(i_energy, 0.0);
  EXPECT_DOUBLE_EQ(q_energy, 0.0);

  // Two chips: the second (odd) chip puts energy on Q.
  BitVec two_chips;
  two_chips.PushBack(true);
  two_chips.PushBack(true);
  const auto wave2 = mod.Modulate(two_chips);
  q_energy = 0.0;
  for (const auto& s : wave2) q_energy += s.imag() * s.imag();
  EXPECT_GT(q_energy, 0.0);
}

TEST(MskModulatorTest, ConstantEnvelopeInSteadyState) {
  // MSK is constant-envelope: once both channels carry pulses, |s(t)|
  // is constant (half-sine pulses on I/Q offset by one chip).
  ModemConfig config;
  config.samples_per_chip = 16;
  const MskModulator mod(config);
  Rng rng(51);
  const BitVec chips = RandomChips(rng, 64);
  const auto wave = mod.Modulate(chips);
  // Skip the ramp-up (first chip) and ramp-down (last chip).
  const std::size_t sps = 16;
  double min_mag = 1e9, max_mag = 0.0;
  for (std::size_t n = 2 * sps; n + 2 * sps < wave.size(); ++n) {
    const double mag = std::abs(wave[n]);
    min_mag = std::min(min_mag, mag);
    max_mag = std::max(max_mag, mag);
  }
  EXPECT_NEAR(min_mag, max_mag, 1e-9);
  EXPECT_NEAR(max_mag, 1.0, 1e-9);
}

TEST(MskDemodTest, CleanRoundTrip) {
  ModemConfig config;
  config.samples_per_chip = 4;
  const MskModulator mod(config);
  const MskDemodulator demod(config);
  Rng rng(52);
  const BitVec chips = RandomChips(rng, 256);
  const auto wave = mod.Modulate(chips);
  const auto soft = DemodulateChips(demod, wave, chips.size());
  EXPECT_EQ(HardChips(soft), chips);
}

TEST(MskDemodTest, SoftOutputScale) {
  // A clean chip correlates to amplitude * pulse energy.
  ModemConfig config;
  config.samples_per_chip = 4;
  config.amplitude = 2.0;
  const MskModulator mod(config);
  const MskDemodulator demod(config);
  BitVec chips;
  chips.PushBack(true);
  chips.PushBack(false);
  const auto wave = mod.Modulate(chips);
  const auto soft = DemodulateChips(demod, wave, 2);
  EXPECT_NEAR(soft[0], 2.0 * demod.PulseEnergy(), 1e-9);
  EXPECT_NEAR(soft[1], -2.0 * demod.PulseEnergy(), 1e-9);
}

TEST(MskDemodTest, PulseEnergyEqualsSamplesPerChip) {
  // sum over 2*sps samples of sin^2(pi m / (2 sps)) == sps.
  for (int sps : {2, 4, 8, 16}) {
    ModemConfig config;
    config.samples_per_chip = sps;
    const MskDemodulator demod(config);
    EXPECT_NEAR(demod.PulseEnergy(), static_cast<double>(sps), 1e-9);
  }
}

TEST(MskDemodTest, TruncatedCaptureDegradesGracefully) {
  ModemConfig config;
  config.samples_per_chip = 4;
  const MskModulator mod(config);
  const MskDemodulator demod(config);
  Rng rng(53);
  const BitVec chips = RandomChips(rng, 32);
  auto wave = mod.Modulate(chips);
  wave.resize(wave.size() / 2);  // lose the second half
  const auto soft = DemodulateChips(demod, wave, chips.size());
  ASSERT_EQ(soft.size(), chips.size());
  // Early chips still demodulate; missing chips give ~zero soft values.
  EXPECT_NE(soft.front(), 0.0);
  EXPECT_EQ(soft.back(), 0.0);
}

TEST(MskDemodTest, DemodulateChipAtHandlesNegativeBase) {
  ModemConfig config;
  config.samples_per_chip = 4;
  const MskDemodulator demod(config);
  const SampleVec samples(64, Sample{1.0, 0.0});
  // Fully before the capture: zero.
  EXPECT_EQ(demod.DemodulateChipComplexAt(samples, -100).real(), 0.0);
  // Straddling the start: partial (positive) correlation.
  const double partial = demod.DemodulateChipComplexAt(samples, -2).real();
  const double full = demod.DemodulateChipComplexAt(samples, 0).real();
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, full);
}

// BER sweep: the measured chip error rate through AWGN must track the
// analytic Q(sqrt(2 Ec/N0)) within Monte-Carlo tolerance.
class MskBerTest : public ::testing::TestWithParam<double> {};

TEST_P(MskBerTest, MatchesTheoreticalChipErrorRate) {
  const double ec_n0_db = GetParam();
  const double ec_n0 = std::pow(10.0, ec_n0_db / 10.0);

  ModemConfig config;
  config.samples_per_chip = 4;
  const MskModulator mod(config);
  const MskDemodulator demod(config);
  Rng rng(54);

  const std::size_t n_chips = 60000;
  const BitVec chips = RandomChips(rng, n_chips);
  auto wave = mod.Modulate(chips);
  const double sigma =
      NoiseSigmaForEcN0(ec_n0, config.amplitude, config.samples_per_chip);
  AddAwgn(wave, sigma, rng);

  const auto soft = DemodulateChips(demod, wave, n_chips);
  const BitVec decoded = HardChips(soft);
  const double measured =
      static_cast<double>(decoded.HammingDistance(chips)) /
      static_cast<double>(n_chips);
  const double expected = ChipErrorProbability(ec_n0);
  EXPECT_NEAR(measured, expected, std::max(0.005, 0.25 * expected))
      << "at Ec/N0 = " << ec_n0_db << " dB";
}

INSTANTIATE_TEST_SUITE_P(SnrSweep, MskBerTest,
                         ::testing::Values(0.0, 2.0, 4.0, 6.0, 8.0));

}  // namespace
}  // namespace ppr::phy
