// Point-to-point PPR link over the waveform PHY: every data-direction
// transmission (initial packets and PP-ARQ retransmissions) is framed,
// modulated, pushed through an AWGN + collision channel, and recovered
// by the full receiver pipeline. This is the configuration of the
// paper's section 7.5 experiment (one GNU Radio sender, one receiver,
// 250-byte packets, Figure 16).
//
// Feedback frames are modeled as reliable out-of-band messages: they
// are tiny compared to data frames and the paper's reverse link is
// likewise assumed to function.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "arq/link_sim.h"
#include "arq/recovery_session.h"
#include "common/rng.h"
#include "ppr/medium.h"
#include "ppr/receiver_pipeline.h"

namespace ppr::core {

struct WaveformChannelParams {
  PipelineConfig pipeline;
  double ec_n0_db = 6.0;  // chip-level SNR of the link
  // Probability that a given transmission suffers a collision from a
  // concurrent sender, the power of that interferer relative to the
  // signal, and the octet length of the interfering burst.
  double collision_probability = 0.0;
  double interferer_relative_db = 0.0;
  std::size_t interferer_octets = 300;
  std::uint64_t seed = 1;
};

// Builds an arq::BodyChannel that carries body bits inside real frames
// over the waveform: pad to octets, frame, modulate, add noise (and a
// colliding burst with the configured probability), then run the
// receiver pipeline and return the payload codewords with their hints.
// When the pipeline fails to recover the frame at all, every codeword
// comes back with an infinitely-bad hint (the ARQ layer then re-requests
// everything it still needs).
//
// Implemented as a single-listener WaveformMedium (ppr/medium.h) in
// CollisionCorrelation::kIndependent mode, which reproduces the
// original point-to-point channel bit-for-bit.
arq::BodyChannel MakeWaveformChannel(const WaveformChannelParams& params);

// One PP-ARQ packet exchange over the waveform channel, under the
// recovery strategy `arq_config.recovery` selects.
arq::ArqRunStats RunWaveformPpArq(std::size_t payload_octets,
                                  const arq::PpArqConfig& arq_config,
                                  const WaveformChannelParams& params,
                                  Rng& payload_rng);

// One relay of a waveform session: it overhears the source at its own
// SNR/collision climate (`overhear`), and the relay -> destination hop
// is its own waveform link (`relay_link`).
struct RelayWaveformParams {
  WaveformChannelParams overhear;     // source -> relay copy
  WaveformChannelParams relay_link;   // relay -> destination
};

// Joint-loss statistics of one waveform session's shared medium:
// listener 0 is the destination, listener i the i-th relay's overheard
// copy; `medium` aggregates across the roster (the
// overhear-loss-given-direct-loss correlation the session saw).
struct WaveformMediumStats {
  arq::SharedMediumStats medium;
  std::vector<arq::ListenerLossStats> listeners;
};

// The N-relay kRelayCodedRepair session with every hop carried by a
// real waveform channel, built on the shared medium: the source's
// initial transmission is ONE WaveformMedium broadcast heard by the
// destination and every relay (collision draws correlated per
// `correlation`), the source's repair frames continue the
// destination-listener stream, and each relay -> destination hop is
// its own real AWGN+collision channel. `arq_config.relay_parties` is
// overridden to relays.size() and
// `arq_config.relay_airtime_budget_bits` becomes the session's
// per-round relay budget, so dense overhearer sets contend for airtime
// exactly as in the channel-abstracted simulator.
//
// Under kIndependent every hop draws privately, bit-for-bit the
// pre-medium behavior (relay hops seeded by their own params.seed);
// under kSharedInterferer the interferer climate comes from `direct`
// (its collision probability and burst length), each listener projects
// the shared burst at its own interferer_relative_db, and every hop
// seed derives from the medium chain (arq::SeedForTransmission on
// direct.seed), so roster size cannot reorder draws.
arq::SessionRunStats RunWaveformMultiRelayRecovery(
    std::size_t payload_octets, const arq::PpArqConfig& arq_config,
    const WaveformChannelParams& direct,
    const std::vector<RelayWaveformParams>& relays, Rng& payload_rng,
    arq::CollisionCorrelation correlation =
        arq::CollisionCorrelation::kIndependent,
    WaveformMediumStats* medium_stats = nullptr);

// Runs the same payload under each recovery strategy, each over an
// identically seeded direct waveform channel, so their repair traffic
// is directly comparable (the coded-vs-uncoded Figure 16 variant).
// When `relay` is supplied the comparison grows its third leg:
// kRelayCodedRepair over the same direct channel plus the overhearing
// topology.
struct RecoveryComparison {
  arq::ArqRunStats chunk;
  arq::ArqRunStats coded;
  std::optional<arq::SessionRunStats> relay;
  // Relay leg only: the shared medium's joint-loss view.
  WaveformMediumStats relay_medium;
  // Relay leg only: initial transmissions that collided on the shared
  // medium yet decoded clean at the destination. Previously these were
  // indistinguishable from corrupted-then-retransmitted frames in this
  // report; counting them separately lets the sim report
  // collision-recovery yield honestly.
  std::size_t collided_recovered = 0;
};

RecoveryComparison CompareRecoveryStrategies(
    std::size_t payload_octets, const arq::PpArqConfig& arq_config,
    const WaveformChannelParams& params, std::uint64_t payload_seed,
    const RelayWaveformParams* relay = nullptr,
    arq::CollisionCorrelation correlation =
        arq::CollisionCorrelation::kIndependent);

}  // namespace ppr::core
