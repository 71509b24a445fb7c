#include "phy/channel.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace ppr::phy {
namespace {

// Below this chip error rate SampleChipErrorMask skips geometrically
// from one error to the next; at and above it, one Bernoulli per chip.
constexpr double kGeometricBelow = 0.1;

}  // namespace

double QFunction(double x) { return 0.5 * std::erfc(x / std::numbers::sqrt2); }

double ChipErrorProbability(double ec_n0_linear) {
  if (ec_n0_linear <= 0.0) return 0.5;
  return QFunction(std::sqrt(2.0 * ec_n0_linear));
}

double NoiseSigmaForEcN0(double ec_n0_linear, double amplitude,
                         int samples_per_chip) {
  assert(ec_n0_linear > 0.0);
  const double pulse_energy = static_cast<double>(samples_per_chip);
  return amplitude * std::sqrt(pulse_energy / (2.0 * ec_n0_linear));
}

void AddAwgn(SampleVec& samples, double sigma, Rng& rng) {
  if (sigma <= 0.0) return;
  for (auto& s : samples) {
    s += Sample{rng.Normal(0.0, sigma), rng.Normal(0.0, sigma)};
  }
}

void ApplyGain(SampleVec& samples, double gain) {
  for (auto& s : samples) s *= gain;
}

void ApplyCarrierOffset(SampleVec& samples, double cfo, double phase) {
  if (cfo == 0.0) {
    // The per-sample angle below is then one value for every n: compute
    // it once, as for n = 0, and rotate every sample by it.
    const double theta = 2.0 * std::numbers::pi * cfo * 0.0 + phase;
    const Sample rotation{std::cos(theta), std::sin(theta)};
    for (auto& s : samples) s *= rotation;
    return;
  }
  for (std::size_t n = 0; n < samples.size(); ++n) {
    const double theta =
        2.0 * std::numbers::pi * cfo * static_cast<double>(n) + phase;
    samples[n] *= Sample{std::cos(theta), std::sin(theta)};
  }
}

void MixInto(SampleVec& mix, const SampleVec& signal, std::size_t offset,
             double gain) {
  if (mix.size() < offset + signal.size()) {
    mix.resize(offset + signal.size(), Sample{0.0, 0.0});
  }
  for (std::size_t i = 0; i < signal.size(); ++i) {
    mix[offset + i] += gain * signal[i];
  }
}

ChipErrorRate::ChipErrorRate(double p)
    : p_(p),
      log1mp_(p > 0.0 && p < kGeometricBelow ? std::log1p(-p) : 0.0) {}

std::uint32_t SampleChipErrorMask(Rng& rng, const ChipErrorRate& rate) {
  const double p = rate.p();
  if (p <= 0.0) return 0;
  if (p >= 1.0) return 0xFFFFFFFFu;
  std::uint32_t mask = 0;
  if (p < kGeometricBelow) {
    // Geometric skipping: jump straight to the next error position.
    double position = 0.0;
    for (;;) {
      double u = rng.UniformDouble();
      if (u < 1e-300) u = 1e-300;
      position += std::floor(std::log(u) / rate.log1mp()) + 1.0;
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

}  // namespace ppr::phy
