// Chip-level receiver model for the testbed simulator.
//
// For every transmission audible at a receiver, the model decodes each
// 32-chip codeword through the real ChipCodebook despreader after
// injecting chip errors at the codeword's instantaneous SINR
// (interference = sum of concurrently received powers). The output is a
// reception record carrying per-codeword decode outcomes and SoftPHY
// hints plus the PHY-level synchronization facts (preamble lock,
// postamble detection, header/trailer integrity) that the delivery
// schemes interpret.
//
// This mirrors the paper's methodology of capturing symbol-level traces
// at the GNU Radio receivers and post-processing them per scheme
// (section 7.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "frame/frame_format.h"
#include "phy/chip_sequences.h"
#include "sim/medium.h"
#include "sim/traffic.h"

namespace ppr::sim {

struct CodewordOutcome {
  std::uint8_t true_symbol = 0;
  std::uint8_t symbol = 0;     // decoded
  std::uint8_t distance = 0;   // Hamming-distance SoftPHY hint
  bool correct = false;
};

struct ReceptionRecord {
  std::size_t sender = 0;
  std::size_t receiver = 0;
  std::uint16_t seq = 0;
  double start_s = 0.0;

  // PHY synchronization facts (scheme-independent).
  bool preamble_sync = false;   // receiver idle + preamble/SFD decodable
  bool postamble_sync = false;  // postamble/PSFD decodable
  bool header_ok = false;       // every header codeword correct
  bool trailer_ok = false;      // every trailer codeword correct

  // One outcome per frame codeword (sync prefix through sync suffix),
  // filled for every audible reception, synced or not: both sync flags
  // are computed from it.
  std::vector<CodewordOutcome> trace;

  double snr_db = 0.0;  // interference-free link SNR
};

struct ReceiverModelConfig {
  std::size_t payload_octets = 1500;
  // Links with interference-free SNR below this are not processed at
  // all (the receiver cannot hear the sender).
  double min_audible_snr_db = -2.0;
  // Sync detection tolerances: required correct codewords out of the
  // 8-codeword preamble/postamble run (the SFD / PSFD pair must decode
  // exactly).
  int min_sync_run_correct = 6;
  // Co-channel 802.15.4 interference damages chips harder than equal-
  // power Gaussian noise would suggest (the interferer is a constant-
  // envelope signal, not noise). Interference power is multiplied by
  // this factor before the SINR -> chip-error-rate mapping, calibrated
  // against the waveform-level collision pipeline.
  double interference_penalty = 3.0;
  // Residual link impairments, modeled as a two-state (Gilbert-Elliott)
  // process per reception: links are mostly clean (a small chip-error
  // floor that keeps correct-codeword hints at 0-1, as in Figure 3) but
  // suffer short impairment bursts during which chips break at a high
  // rate. Burst frequency varies by more than an order of magnitude
  // across links, per the loss studies the paper cites [1,26,27]: each
  // link draws its per-codeword burst-entry probability from a
  // lognormal with median `impairment_rate` and the given log-sigma.
  double good_chip_floor = 0.008;
  double impairment_rate = 3e-4;
  double impairment_spread_sigma = 1.5;
  double impairment_exit = 0.3;      // mean burst ~3.3 codewords
  double impaired_chip_error = 0.35;
  // Small-scale multipath fading: block Ricean fading with this
  // coherence time, K factor (linear; 0 = Rayleigh), applied per
  // (transmitter, receiver, time-segment). With ~49 ms frames and
  // ~15 ms coherence, a fade dip corrupts part of a frame — the
  // paper's "only a small number of bits in a packet are in error".
  double fading_coherence_s = 0.008;
  double ricean_k = 1.5;
  std::uint64_t seed = 1234;
};

class ReceiverModel {
 public:
  ReceiverModel(const RadioMedium& medium, const ReceiverModelConfig& config);

  const frame::FrameLayout& Layout() const { return layout_; }

  // Codeword index ranges within the frame trace.
  std::size_t PayloadCwOffset() const { return layout_.PayloadOffset() * 2; }
  std::size_t PayloadCwCount() const { return layout_.payload_octets() * 2; }
  std::size_t BodyCwOffset() const { return layout_.HeaderOffset() * 2; }
  std::size_t BodyCwCount() const { return layout_.BodyOctets() * 2; }

  // Processes every transmission in `schedule` as heard by `receiver`,
  // invoking `on_reception` for each audible one (in time order). The
  // record reference is only valid during the callback.
  void ProcessReceiver(
      std::size_t receiver, const std::vector<Transmission>& schedule,
      const std::function<void(const ReceptionRecord&)>& on_reception) const;

  const ReceiverModelConfig& config() const { return config_; }

 private:
  // True symbols for a (sender, seq) frame: sync patterns at both ends,
  // deterministic pseudo-random test pattern in the body.
  std::vector<std::uint8_t> TrueSymbols(std::size_t sender,
                                        std::uint16_t seq) const;

  const RadioMedium& medium_;
  ReceiverModelConfig config_;
  frame::FrameLayout layout_;
  phy::ChipCodebook codebook_;
};

}  // namespace ppr::sim
