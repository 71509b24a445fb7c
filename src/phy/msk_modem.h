// MSK (O-QPSK with half-sine pulse shaping) modulator and demodulator,
// the modulation used by the CC2420 / 802.15.4 2.4 GHz PHY (section 6).
//
// Chip k (0-based) is transmitted on the I channel when k is even and on
// the Q channel when k is odd, shaped by a half-sine pulse of duration
// two chip periods starting at chip time k. Adjacent same-channel pulses
// abut without overlap, so a half-sine matched filter per chip window
// recovers each chip without inter-chip interference at ideal timing.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvec.h"

namespace ppr::phy {

using Sample = std::complex<double>;
using SampleVec = std::vector<Sample>;

struct ModemConfig {
  int samples_per_chip = 4;  // oversampling factor
  double amplitude = 1.0;    // per-channel pulse amplitude
};

// Modulates a chip stream (0/1 chips, chip 0 first) to complex baseband.
// The output holds (num_chips + 1) * samples_per_chip samples because the
// final chip's half-sine extends one chip period past the last chip
// boundary.
class MskModulator {
 public:
  explicit MskModulator(const ModemConfig& config);

  SampleVec Modulate(const BitVec& chips) const;

  // Number of output samples for a given chip count.
  std::size_t NumSamples(std::size_t num_chips) const;

  const ModemConfig& config() const { return config_; }

 private:
  ModemConfig config_;
  std::vector<double> pulse_;  // half-sine, 2 * samples_per_chip long
};

// Matched-filter demodulator: one chip's soft value is the correlation
// of its 2*sps window with the half-sine pulse on the chip's channel.
// The receiver (ppr/receiver_pipeline.h) derotates the complex
// correlation by its sync-derived carrier-phase estimate and takes the
// real part for even chips (I) and the imaginary part for odd chips
// (Q). Sign is the hard chip decision; magnitude is reliability.
class MskDemodulator {
 public:
  explicit MskDemodulator(const ModemConfig& config);

  // Complex matched-filter correlation for the chip whose pulse begins
  // at (possibly negative) sample index `base_sample`. Samples outside
  // the capture contribute zero, so a truncated reception or a rollback
  // past the buffered window degrades to low-confidence soft values
  // instead of failing.
  Sample DemodulateChipComplexAt(const SampleVec& samples,
                                 std::int64_t base_sample) const;

  // Matched-filter energy (sum of squared pulse taps) — the scale of a
  // clean soft output is amplitude * this value.
  double PulseEnergy() const { return pulse_energy_; }

  const ModemConfig& config() const { return config_; }

 private:
  ModemConfig config_;
  std::vector<double> pulse_;
  double pulse_energy_ = 0.0;
};

// Converts hard chips out of soft values (v >= 0 -> 1).
BitVec HardChips(const std::vector<double>& soft_chips);

}  // namespace ppr::phy
