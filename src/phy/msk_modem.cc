#include "phy/msk_modem.h"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ppr::phy {
namespace {

std::vector<double> MakeHalfSinePulse(int samples_per_chip, double amplitude) {
  if (samples_per_chip < 2) {
    throw std::invalid_argument("ModemConfig: samples_per_chip must be >= 2");
  }
  const int len = 2 * samples_per_chip;
  std::vector<double> pulse(static_cast<std::size_t>(len));
  for (int m = 0; m < len; ++m) {
    pulse[static_cast<std::size_t>(m)] =
        amplitude * std::sin(std::numbers::pi * m / len);
  }
  return pulse;
}

}  // namespace

MskModulator::MskModulator(const ModemConfig& config)
    : config_(config),
      pulse_(MakeHalfSinePulse(config.samples_per_chip, config.amplitude)) {}

std::size_t MskModulator::NumSamples(std::size_t num_chips) const {
  return (num_chips + 1) * static_cast<std::size_t>(config_.samples_per_chip);
}

SampleVec MskModulator::Modulate(const BitVec& chips) const {
  const int sps = config_.samples_per_chip;
  SampleVec out(NumSamples(chips.size()), Sample{0.0, 0.0});
  for (std::size_t k = 0; k < chips.size(); ++k) {
    const double level = chips.Get(k) ? 1.0 : -1.0;
    const std::size_t base = k * static_cast<std::size_t>(sps);
    const bool on_i = (k % 2 == 0);
    for (std::size_t m = 0; m < pulse_.size(); ++m) {
      const double v = level * pulse_[m];
      if (on_i) {
        out[base + m] += Sample{v, 0.0};
      } else {
        out[base + m] += Sample{0.0, v};
      }
    }
  }
  return out;
}

MskDemodulator::MskDemodulator(const ModemConfig& config)
    : config_(config),
      pulse_(MakeHalfSinePulse(config.samples_per_chip, 1.0)) {
  for (double p : pulse_) pulse_energy_ += p * p;
}

Sample MskDemodulator::DemodulateChipComplexAt(const SampleVec& samples,
                                               std::int64_t base_sample) const {
  Sample acc{0.0, 0.0};
  for (std::size_t m = 0; m < pulse_.size(); ++m) {
    const std::int64_t idx = base_sample + static_cast<std::int64_t>(m);
    if (idx < 0) continue;
    if (idx >= static_cast<std::int64_t>(samples.size())) break;
    acc += samples[static_cast<std::size_t>(idx)] * pulse_[m];
  }
  return acc;
}

BitVec HardChips(const std::vector<double>& soft_chips) {
  BitVec chips;
  for (double v : soft_chips) chips.PushBack(v >= 0.0);
  return chips;
}

}  // namespace ppr::phy
