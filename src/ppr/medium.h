// Shared broadcast-medium API over the waveform PHY: one transmission,
// correlated receptions at every registered listener.
//
// The paper's testbed is a broadcast medium — when an interferer
// collides with a transmission, every co-located receiver of that
// transmission (the destination AND the overhearing relays) sees the
// same burst. The pre-medium channel layer wired each hop as a private
// arq::BodyChannel with its own collision draws, which systematically
// overstates multi-relay repair value: under private draws a relay
// usually holds a clean copy exactly when the destination lost its
// own, which a shared interferer does not allow.
//
// WaveformMedium fixes the model. A medium owns a roster of listeners
// (each with its own gain, Ec/N0 and interferer power — its geometry);
// Transmit() is one transmission event:
//
//   * Under CollisionCorrelation::kSharedInterferer the interferer
//     presence, burst content, carrier phase, and relative timing are
//     drawn ONCE per transmission — from a seed that is a pure
//     function of (medium seed, sender, transmission index), see
//     arq::SeedForTransmission — and projected through each listener's
//     own geometry. Per-listener AWGN stays private (a derived
//     per-(transmission, listener) stream), so losses correlate
//     without being identical.
//   * Under kIndependent each listener reproduces the legacy
//     MakeWaveformChannel draws bit-for-bit from its own persistent
//     Rng: private collision draws, the pre-medium behavior. A
//     single-listener medium IS the old point-to-point channel.
//
// Listener 0 is the reference listener (the destination in the session
// runners); the joint-loss statistics condition on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arq/chip_medium.h"
#include "arq/link_sim.h"
#include "common/rng.h"
#include "ppr/receiver_pipeline.h"

namespace ppr::core {

struct WaveformChannelParams;  // ppr/link.h

// One listener's receive geometry. `channel` carries the pipeline
// configuration, the chip-level SNR, the private-collision climate
// (kIndependent mode), and the listener's private seed; the remaining
// knobs project the shared transmission through this listener's
// position.
struct WaveformListenerParams {
  PipelineConfig pipeline;
  double ec_n0_db = 6.0;           // chip-level SNR of this hop
  double collision_probability = 0.0;   // kIndependent: private draw
  double interferer_relative_db = 0.0;  // interferer power at THIS listener
  std::size_t interferer_octets = 300;  // kIndependent: private burst length
  std::uint64_t seed = 1;          // private noise/collision stream
  double gain = 1.0;               // voltage gain on the data signal
};

// One transmission event. `sender` is the transmitting node's identity
// in the medium's seed chain (per-sender transmission counters);
// `seed` overrides the derived per-transmission seed, e.g. to force a
// specific interferer draw in tests.
struct Transmission {
  Transmission() = default;
  Transmission(BitVec bits, std::size_t sender_id = 0,
               std::optional<std::uint64_t> seed_override = std::nullopt)
      : body_bits(std::move(bits)), sender(sender_id), seed(seed_override) {}

  BitVec body_bits;  // ARQ body bits, a multiple of 4
  std::size_t sender = 0;
  std::optional<std::uint64_t> seed;
};

// kSharedInterferer: the transmission-level interferer climate
// (presence probability and burst length are medium properties; the
// burst's power at each listener is the listener's own
// interferer_relative_db).
struct SharedClimate {
  double collision_probability = 0.0;
  std::size_t interferer_octets = 300;
};

class WaveformMedium : public std::enable_shared_from_this<WaveformMedium> {
 public:
  using ListenerId = std::size_t;

  struct Reception {
    ListenerId listener = 0;
    std::vector<phy::DecodedSymbol> symbols;  // one per body codeword
    bool collided = false;         // an interferer overlapped this copy
    bool frame_recovered = false;  // the pipeline found the frame
    bool corrupted = false;        // unrecovered, or >=1 wrong codeword
  };

  static std::shared_ptr<WaveformMedium> Create(
      arq::CollisionCorrelation correlation, std::uint64_t medium_seed,
      const SharedClimate& climate = {});

  // Registers a listener; ids are assigned in call order and order the
  // receptions.
  ListenerId AddListener(const WaveformListenerParams& params);

  // The per-transmission seed for this medium's chain:
  // arq::SeedForTransmission(medium_seed, sender, tx_index).
  std::uint64_t SeedForTransmission(std::size_t sender,
                                    std::uint64_t tx_index) const;

  // One transmission -> one reception per listener, in listener order.
  // Counted in the joint-loss stats.
  std::vector<Reception> Transmit(const Transmission& tx);

  // arq adapters. The broadcast channel runs Transmit() with sender 0;
  // a listener (unicast) channel is a later transmission in the same
  // sender stream heard only by that listener (repair traffic) — it
  // advances the sender's transmission counter and shares the seed
  // chain but does not enter the joint-loss stats.
  arq::BroadcastBodyChannel MakeBroadcastChannel(std::size_t sender = 0);
  arq::BodyChannel MakeListenerChannel(ListenerId listener,
                                       std::size_t sender = 0);

  const arq::ListenerLossStats& StatsFor(ListenerId listener) const;
  const arq::SharedMediumStats& medium_stats() const { return medium_stats_; }
  std::size_t num_listeners() const { return listeners_.size(); }

 private:
  WaveformMedium(arq::CollisionCorrelation correlation,
                 std::uint64_t medium_seed, const SharedClimate& climate);

  struct Listener {
    WaveformListenerParams params;
    FrameModulator modulator;
    ReceiverPipeline pipeline;
    Rng rng;  // kIndependent: the legacy per-channel stream
    arq::ListenerLossStats stats;

    explicit Listener(const WaveformListenerParams& p)
        : params(p),
          modulator(p.pipeline.modem),
          pipeline(p.pipeline),
          rng(p.seed) {}
  };

  // The once-per-transmission draw a shared medium projects through
  // every listener.
  struct SharedDraw {
    std::uint64_t tx_seed = 0;
    double carrier_phase = 0.0;
    bool collided = false;
    std::vector<std::uint8_t> burst_octets;
    phy::SampleVec burst_wave;  // burst_octets modulated, phase applied
    double burst_phase = 0.0;
    double offset_fraction = 0.0;  // burst start as a fraction of slack
  };

  std::vector<Reception> TransmitImpl(const BitVec& bits, std::size_t sender,
                                      std::optional<std::uint64_t> seed,
                                      std::optional<ListenerId> only);
  Reception ReceiveAt(Listener& listener, ListenerId id,
                      const frame::FrameHeader& header,
                      const std::vector<std::uint8_t>& payload,
                      const BitVec& bits, const SharedDraw& shared,
                      const phy::SampleVec& base_wave,
                      const phy::ModemConfig& base_modem);

  arq::CollisionCorrelation correlation_;
  std::uint64_t medium_seed_;
  SharedClimate climate_;
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::vector<std::uint64_t> tx_index_;  // per-sender counters, lazily grown
  arq::SharedMediumStats medium_stats_;
};

// The listener geometry implied by a legacy point-to-point channel
// parameter block (ppr/link.h): unit gain, no CFO or timing skew.
WaveformListenerParams ListenerFromChannelParams(
    const WaveformChannelParams& params);

}  // namespace ppr::core
