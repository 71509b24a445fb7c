// Single-link ARQ exchanges over a pluggable symbol channel.
//
// The channel abstraction maps transmitted bits to received
// DecodedSymbols (one per 4-bit codeword, with SoftPHY hints), letting
// the same ARQ logic run over (a) a memoryless chip-error channel,
// (b) a Gilbert-Elliott bursty channel — collisions and fades produce
// bursts of bad codewords, the regime PP-ARQ's chunking is designed
// for — or (c) the full waveform PHY (src/ppr/link.h).
//
// Feedback frames are modeled as reliable: they are short, and the paper
// likewise evaluates forward-link recovery (section 7.5).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "arq/pp_arq.h"
#include "arq/recovery_strategy.h"
#include "common/bitvec.h"
#include "common/rng.h"
#include "phy/channel.h"
#include "phy/chip_sequences.h"
#include "phy/despreader.h"

namespace ppr::arq {

// Maps transmitted bits (a multiple of 4) to received codewords.
using BodyChannel =
    std::function<std::vector<phy::DecodedSymbol>(const BitVec&)>;

// One transmission heard by several listeners at once: returns one
// reception (a vector of DecodedSymbols) per registered listener, in
// listener order. Backed by a shared medium (arq/chip_medium.h,
// ppr/medium.h) the receptions are correlated — the same interferer
// draw projected through each listener's own geometry; backed by
// private per-hop channels they are independent.
using BroadcastBodyChannel =
    std::function<std::vector<std::vector<phy::DecodedSymbol>>(const BitVec&)>;

// How collisions correlate across the co-located listeners of one
// transmission. The paper's testbed is a broadcast medium: an
// interferer that collides with a transmission hits the destination
// AND the overhearing relays, so private per-hop collision draws
// (kIndependent, the legacy model) systematically overstate how often
// a relay holds a clean copy exactly when the destination needs one.
enum class CollisionCorrelation {
  kIndependent,       // each hop draws its own collisions (legacy)
  kSharedInterferer,  // one interferer draw per transmission, projected
                      // through every listener
};

struct ArqRunStats {
  bool success = false;
  std::size_t data_transmissions = 0;  // initial + retransmission frames
  std::size_t forward_bits = 0;        // data-direction bits on the air
  std::size_t feedback_bits = 0;       // reverse-direction bits
  // Size in bits of each retransmission frame (Figure 16 plots the CDF
  // of these, in bytes, for PP-ARQ).
  std::vector<std::size_t> retransmission_bits;
};

// Runs a full PP-ARQ exchange for one packet payload under the recovery
// strategy `config.recovery` selects (chunk retransmission by default).
// `max_rounds` bounds total feedback rounds (beyond PpArqConfig
// escalation). To run an explicit strategy instance or to see the
// per-party breakdown, call RunRecoveryExchangeSession
// (arq/recovery_session.h).
ArqRunStats RunPpArqExchange(const BitVec& payload_bits,
                             const PpArqConfig& config,
                             const BodyChannel& channel,
                             std::size_t max_rounds = 32);

// Status quo: retransmit the whole packet until its CRC-32 verifies.
ArqRunStats RunWholePacketArq(const BitVec& payload_bits,
                              const BodyChannel& channel,
                              std::size_t max_rounds = 32);

// Memoryless channel: every chip flips with probability `chip_error_p`;
// codewords decode through the real despreader, so hints are genuine
// Hamming distances.
BodyChannel MakeChipErrorChannel(const phy::ChipCodebook& codebook,
                                 double chip_error_p, Rng& rng);

// Gilbert-Elliott bursty channel: a two-state Markov chain (good/bad)
// advances per codeword; chips flip at the state's error rate. Models
// collision bursts.
struct GilbertElliottParams {
  double p_good_to_bad = 0.01;
  double p_bad_to_good = 0.2;
  double chip_error_good = 0.001;
  double chip_error_bad = 0.2;
};

BodyChannel MakeGilbertElliottChannel(const phy::ChipCodebook& codebook,
                                      const GilbertElliottParams& params,
                                      Rng& rng);

// Extracts the logical bit stream from ARQ-layer codewords (codeword i
// carries bits [4i, 4i+4), MSB first).
BitVec SymbolsToLogicalBits(const std::vector<phy::DecodedSymbol>& symbols);

// Decodes one logical nibble through the codebook with each chip
// flipped independently at `rate`: the primitive the synthetic
// channels above and the chip-level broadcast medium
// (arq/chip_medium.h) share.
phy::DecodedSymbol ChipTransmitNibble(const phy::ChipCodebook& codebook,
                                      std::uint8_t nibble,
                                      const phy::ChipErrorRate& rate,
                                      Rng& rng);

}  // namespace ppr::arq
