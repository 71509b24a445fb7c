// The full PPR waveform receiver (Figure 1): frame synchronization on
// preambles AND postambles, matched-filter demodulation, DSSS
// despreading with SoftPHY hints, and header/trailer parsing. This is
// the software equivalent of the paper's GNU Radio receiver.
//
// Preamble path: correlate for [preamble|SFD]; an intact header then
// frames the packet. Postamble path (section 4): correlate for
// [postamble|PSFD]; roll back the trailer's worth of samples, parse and
// CRC-check the trailer, then roll back the whole frame and decode
// everything the buffer still holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "frame/frame_format.h"
#include "phy/despreader.h"
#include "phy/frame_sync.h"
#include "phy/msk_modem.h"

namespace ppr::core {

struct PipelineConfig {
  phy::ModemConfig modem;          // samples/chip, amplitude
  double sync_threshold = 0.60;    // normalized correlation for sync
  std::size_t max_payload_octets = 1600;  // bounds rollback distance
  phy::HintKind hint_kind = phy::HintKind::kHammingDistance;
};

struct RecoveredFrame {
  enum class SyncSource { kPreamble, kPostamble };

  SyncSource sync = SyncSource::kPreamble;
  double sync_score = 0.0;
  // Absolute sample index where the frame's first chip begins; negative
  // when the postamble's rollback lands before the capture's first
  // sample.
  std::int64_t frame_start_sample = 0;
  frame::FrameHeader header;
  bool header_from_trailer = false;  // framed via the trailer replica

  // Decoded body (header..trailer octets) in logical nibble order:
  // symbol k carries bits [4k, 4k+4) of the body octet stream.
  std::vector<phy::DecodedSymbol> body_symbols;

  // Payload codewords (logical order) and bytes-with-hints access.
  std::vector<phy::DecodedSymbol> PayloadSymbols() const;
  BitVec PayloadBits() const;
};

// Sender-side helper: frame -> chips -> waveform.
class FrameModulator {
 public:
  explicit FrameModulator(const phy::ModemConfig& config);

  phy::SampleVec Modulate(const frame::FrameHeader& header,
                          std::span<const std::uint8_t> payload) const;
  phy::SampleVec ModulateOctets(std::span<const std::uint8_t> octets) const;

  const phy::ChipCodebook& codebook() const { return codebook_; }

 private:
  phy::ChipCodebook codebook_;
  phy::MskModulator modulator_;
};

// Capture-based receiver and the one receive entry point: the waveform
// medium behind ppr/link.h, fig13 and the examples all call Process.
// It processes a complete sample capture and recovers every frame it
// can, via preambles first and postambles for anything the preamble
// path missed. The testbed's GNU Radio receivers are trace-based in the
// same way (section 7.1).
class ReceiverPipeline {
 public:
  explicit ReceiverPipeline(const PipelineConfig& config);

  std::vector<RecoveredFrame> Process(const phy::SampleVec& samples) const;

  // Exposed for tests: the two sync correlators' scores.
  double PreambleScoreAt(const phy::SampleVec& samples, std::size_t n) const;
  double PostambleScoreAt(const phy::SampleVec& samples, std::size_t n) const;

  const PipelineConfig& config() const { return config_; }

 private:
  std::optional<RecoveredFrame> DecodeFromPreamble(
      const phy::SampleVec& samples, const phy::SyncHit& hit) const;
  // Empty when the trailer does not decode, or when a frame in `found`
  // already starts where the trailer places this one.
  std::optional<RecoveredFrame> DecodeFromPostamble(
      const phy::SampleVec& samples, const phy::SyncHit& hit,
      const std::vector<RecoveredFrame>& found) const;

  // Demodulates + despreads `num_symbols` codewords whose first chip
  // begins at `chip0_sample` (possibly negative region reads as zeros),
  // derotating by the sync-derived carrier phase estimate.
  std::vector<phy::DecodedSymbol> DecodeSymbols(const phy::SampleVec& samples,
                                                std::int64_t chip0_sample,
                                                std::size_t num_symbols,
                                                double carrier_phase) const;

  PipelineConfig config_;
  phy::ChipCodebook codebook_;
  phy::MskDemodulator demod_;
  phy::WaveformCorrelator preamble_correlator_;
  phy::WaveformCorrelator postamble_correlator_;
};

}  // namespace ppr::core
