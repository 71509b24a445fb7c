// Preamble and postamble frame synchronization by waveform correlation.
//
// The receiver slides a reference waveform (the modulated sync pattern:
// zero-symbol run followed by the SFD, or followed by the post-SFD for
// postambles) across the received samples and reports peaks of the
// normalized correlation magnitude. A peak at offset n means the sync
// pattern's chip 0 begins at sample n, which also fixes chip timing for
// the rest of the frame.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "phy/msk_modem.h"

namespace ppr::phy {

struct SyncHit {
  std::size_t sample_offset = 0;  // where the reference's chip 0 begins
  double score = 0.0;             // normalized correlation in [0, 1]
  // Carrier-phase estimate of the matched transmission: the argument of
  // the complex correlation. A receiver derotates by this before
  // demodulating (sync-aided carrier phase recovery).
  double phase = 0.0;
};

class WaveformCorrelator {
 public:
  // `reference` is the clean modulated waveform of the sync pattern.
  explicit WaveformCorrelator(SampleVec reference);

  // Normalized correlation magnitude of the reference against the
  // received window starting at `n` (0 if the window runs past the end).
  double ScoreAt(const SampleVec& rx, std::size_t n) const;

  // Score plus carrier-phase estimate (arg of the complex correlation).
  double ScoreAt(const SampleVec& rx, std::size_t n, double* phase) const;

  // All local peaks with score >= threshold, at least `min_separation`
  // samples apart (the stronger peak wins within a separation window).
  // Every hit's score and phase are ScoreAt's, bit for bit: an FFT
  // correlation only picks the offsets worth scoring exactly. This is
  // FindPeaksTogether of this correlator alone.
  std::vector<SyncHit> FindPeaks(const SampleVec& rx, double threshold,
                                 std::size_t min_separation) const;

  std::size_t ReferenceLength() const { return reference_.size(); }

 private:
  friend std::vector<std::vector<SyncHit>> FindPeaksTogether(
      std::span<const WaveformCorrelator* const> correlators,
      const SampleVec& rx, double threshold, std::size_t min_separation);

  SampleVec reference_;
  double reference_energy_ = 0.0;
};

// FindPeaks of every correlator over one capture, in one pass: each FFT
// block's forward transform and window energies are computed once and
// shared by all the references, which must be equally long
// (std::invalid_argument otherwise). Returns one hit list per
// correlator, in order, each equal to that correlator's FindPeaks.
std::vector<std::vector<SyncHit>> FindPeaksTogether(
    std::span<const WaveformCorrelator* const> correlators,
    const SampleVec& rx, double threshold, std::size_t min_separation);

}  // namespace ppr::phy
