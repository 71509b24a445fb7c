// Complex-baseband channel models: AWGN, gain/attenuation, delay,
// carrier offset, and superposition of concurrent transmissions
// (collisions). These stand in for the over-the-air channel between the
// CC2420 senders and the USRP receivers of the paper's testbed.
#pragma once

#include <cstddef>

#include "common/rng.h"
#include "phy/msk_modem.h"

namespace ppr::phy {

// Gaussian Q function: P(N(0,1) > x).
double QFunction(double x);

// Probability of a chip error for antipodal chips through a matched
// filter at chip SNR (Ec/N0) `ec_n0_linear`: Q(sqrt(2 * Ec/N0)). This is
// the link between the waveform channel and the chip-level testbed
// simulator — both produce the same chip error statistics at equal SNR.
double ChipErrorProbability(double ec_n0_linear);

// Noise standard deviation per real dimension that realizes a target
// chip-level Ec/N0 for half-sine MSK pulses with the given amplitude and
// oversampling. Derivation: matched-filter signal level = A * Ep where
// Ep = sum p^2[m] = sps; noise variance after the filter = sigma^2 * Ep;
// Ec = A^2 * Ep and N0 = 2 sigma^2, so Ec/N0 = A^2 * Ep / (2 sigma^2).
double NoiseSigmaForEcN0(double ec_n0_linear, double amplitude,
                         int samples_per_chip);

// Adds white Gaussian noise (independent per real dimension) in place.
void AddAwgn(SampleVec& samples, double sigma, Rng& rng);

// Scales a signal by a (voltage) gain.
void ApplyGain(SampleVec& samples, double gain);

// Applies a carrier frequency/phase offset: s[n] *= exp(j*(2*pi*cfo*n + phase)),
// with `cfo` in cycles per sample.
void ApplyCarrierOffset(SampleVec& samples, double cfo, double phase);

// Adds `signal` into `mix` starting at sample `offset`, growing `mix` if
// needed. Models concurrent transmissions superposing at a receiver.
void MixInto(SampleVec& mix, const SampleVec& signal, std::size_t offset,
             double gain = 1.0);

// A per-chip flip probability in the form SampleChipErrorMask draws
// from. Below 0.1 the sampler jumps between error positions with
// geometric skips of scale log1p(-p); that logarithm is taken once
// here, where a caller chooses p, not once per 32-chip draw.
class ChipErrorRate {
 public:
  explicit ChipErrorRate(double p);

  double p() const { return p_; }
  // log1p(-p) when the sampler skips geometrically (0 < p < 0.1).
  double log1mp() const { return log1mp_; }

 private:
  double p_;
  double log1mp_;
};

// Draws a 32-chip error mask where each chip flips independently with
// probability `rate.p()` (none when p <= 0, all when p >= 1). Used by
// the chip-level simulators; the geometric-skip sampler keeps the
// common low-error-rate case cheap.
std::uint32_t SampleChipErrorMask(Rng& rng, const ChipErrorRate& rate);

}  // namespace ppr::phy
