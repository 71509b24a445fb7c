#include "ppr/medium.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "obs/obs.h"
#include "phy/channel.h"
#include "ppr/link.h"

namespace ppr::core {
namespace {

// Fills a vector of all-bad codewords: the ARQ layer treats these as
// "nothing useful received".
std::vector<phy::DecodedSymbol> AllBad(std::size_t count) {
  std::vector<phy::DecodedSymbol> out(count);
  for (auto& s : out) {
    s.symbol = 0;
    s.hint = std::numeric_limits<double>::infinity();
    s.hamming_distance = phy::kChipsPerSymbol;
  }
  return out;
}

}  // namespace

WaveformListenerParams ListenerFromChannelParams(
    const WaveformChannelParams& params) {
  WaveformListenerParams listener;
  listener.pipeline = params.pipeline;
  listener.ec_n0_db = params.ec_n0_db;
  listener.collision_probability = params.collision_probability;
  listener.interferer_relative_db = params.interferer_relative_db;
  listener.interferer_octets = params.interferer_octets;
  listener.seed = params.seed;
  return listener;
}

WaveformMedium::WaveformMedium(arq::CollisionCorrelation correlation,
                               std::uint64_t medium_seed,
                               const SharedClimate& climate)
    : correlation_(correlation), medium_seed_(medium_seed), climate_(climate) {}

std::shared_ptr<WaveformMedium> WaveformMedium::Create(
    arq::CollisionCorrelation correlation, std::uint64_t medium_seed,
    const SharedClimate& climate) {
  return std::shared_ptr<WaveformMedium>(
      new WaveformMedium(correlation, medium_seed, climate));
}

WaveformMedium::ListenerId WaveformMedium::AddListener(
    const WaveformListenerParams& params) {
  listeners_.push_back(std::make_unique<Listener>(params));
  return listeners_.size() - 1;
}

std::uint64_t WaveformMedium::SeedForTransmission(
    std::size_t sender, std::uint64_t tx_index) const {
  return arq::SeedForTransmission(medium_seed_, sender, tx_index);
}

WaveformMedium::Reception WaveformMedium::ReceiveAt(
    Listener& l, ListenerId id, const frame::FrameHeader& header,
    const std::vector<std::uint8_t>& payload, const BitVec& bits,
    const SharedDraw& shared, const phy::SampleVec& base_wave,
    const phy::ModemConfig& base_modem) {
  const bool independent =
      correlation_ == arq::CollisionCorrelation::kIndependent;
  const std::size_t nibbles = bits.size() / 4;
  Reception r;
  r.listener = id;

  // Modulation depends only on the modem config; the transmission's
  // base waveform is modulated once and re-done here only when this
  // listener's modem differs from the reference's.
  const bool same_modem =
      l.params.pipeline.modem.samples_per_chip == base_modem.samples_per_chip &&
      l.params.pipeline.modem.amplitude == base_modem.amplitude;
  phy::SampleVec wave =
      same_modem ? base_wave : l.modulator.Modulate(header, payload);
  // The transmitter's carrier phase: the transmission's own draw on a
  // shared medium, this listener's private draw in the legacy model.
  const double phase =
      independent ? l.rng.UniformDouble(0.0, 2.0 * std::numbers::pi)
                  : shared.carrier_phase;
  phy::ApplyCarrierOffset(wave, 0.0, phase);
  if (l.params.gain != 1.0) phy::ApplyGain(wave, l.params.gain);

  // Guard padding so sync search starts and ends in noise.
  const int sps = l.params.pipeline.modem.samples_per_chip;
  const std::size_t guard = static_cast<std::size_t>(64 * sps);
  phy::SampleVec air(wave.size() + 2 * guard, phy::Sample{0.0, 0.0});
  phy::MixInto(air, wave, guard);

  // Collision: a concurrent burst overlapping part of the frame. On a
  // shared medium the burst (content, phase, relative timing) is the
  // transmission's, projected here at this listener's interferer
  // power; in the legacy model everything is a private draw.
  if (independent) {
    r.collided = l.rng.Bernoulli(l.params.collision_probability);
    if (r.collided) {
      std::vector<std::uint8_t> junk(l.params.interferer_octets);
      for (auto& b : junk) {
        b = static_cast<std::uint8_t>(l.rng.UniformInt(256));
      }
      phy::SampleVec burst = l.modulator.ModulateOctets(junk);
      phy::ApplyCarrierOffset(
          burst, 0.0, l.rng.UniformDouble(0.0, 2.0 * std::numbers::pi));
      const double gain =
          std::pow(10.0, l.params.interferer_relative_db / 20.0);
      const std::size_t span =
          air.size() > burst.size() ? air.size() - burst.size() : 1;
      const std::size_t offset = l.rng.UniformInt(span);
      phy::MixInto(air, burst, offset, gain);
    }
  } else {
    r.collided = shared.collided;
    if (r.collided) {
      phy::SampleVec remodulated;
      const phy::SampleVec* burst = &shared.burst_wave;
      if (!same_modem) {
        remodulated = l.modulator.ModulateOctets(shared.burst_octets);
        phy::ApplyCarrierOffset(remodulated, 0.0, shared.burst_phase);
        burst = &remodulated;
      }
      const double gain =
          std::pow(10.0, l.params.interferer_relative_db / 20.0);
      const std::size_t span =
          air.size() > burst->size() ? air.size() - burst->size() : 1;
      const std::size_t offset = std::min(
          static_cast<std::size_t>(shared.offset_fraction *
                                   static_cast<double>(span)),
          span - 1);
      phy::MixInto(air, *burst, offset, gain);
    }
  }

  const double sigma = phy::NoiseSigmaForEcN0(
      std::pow(10.0, l.params.ec_n0_db / 10.0),
      l.params.pipeline.modem.amplitude, sps);
  if (independent) {
    phy::AddAwgn(air, sigma, l.rng);
  } else {
    // Private noise from a per-(transmission, listener) derived stream:
    // independent across listeners, reorderable by nothing.
    Rng noise(arq::SeedForTransmission(shared.tx_seed ^ l.params.seed,
                                       id + 1, 0));
    phy::AddAwgn(air, sigma, noise);
  }

  const auto frames = l.pipeline.Process(air);
  // Use the recovered frame matching this transmission's seq (there is
  // at most one expected frame per call).
  for (const auto& f : frames) {
    if (f.header.seq != header.seq || f.header.length != payload.size()) {
      continue;
    }
    auto symbols = f.PayloadSymbols();
    if (symbols.size() < nibbles) break;
    symbols.resize(nibbles);  // drop padding codewords
    r.frame_recovered = true;
    r.symbols = std::move(symbols);
    for (std::size_t k = 0; k < nibbles; ++k) {
      if (r.symbols[k].symbol != bits.ReadUint(4 * k, 4)) {
        r.corrupted = true;
        break;
      }
    }
    return r;
  }
  r.symbols = AllBad(nibbles);
  r.corrupted = true;
  return r;
}

std::vector<WaveformMedium::Reception> WaveformMedium::TransmitImpl(
    const BitVec& bits, std::size_t sender, std::optional<std::uint64_t> seed,
    std::optional<ListenerId> only) {
  if (listeners_.empty()) {
    throw std::logic_error("WaveformMedium: transmit with no listeners");
  }
  if (tx_index_.size() <= sender) tx_index_.resize(sender + 1, 0);
  const std::uint64_t tx_index = ++tx_index_[sender];
  obs::Count("medium.waveform.transmissions");
  obs::Count("medium.waveform.transmitted_bits", bits.size());
  obs::ScopedTimer tx_timer(
      obs::TimingsEnabled()
          ? obs::CurrentMetrics()->GetHistogram("medium.waveform.tx_ns")
          : nullptr,
      obs::CurrentTracer(), "medium.tx", "medium", [&] {
        return obs::TraceArgs{
            {"bits", static_cast<std::int64_t>(bits.size())},
            {"sender", static_cast<std::int64_t>(sender)},
            {"unicast", only.has_value() ? 1 : 0}};
      });

  // Pad the body to whole octets for framing.
  BitVec padded = bits;
  while (padded.size() % 8 != 0) padded.PushBack(false);
  const auto payload = padded.ToBytes();

  frame::FrameHeader header;
  header.length = static_cast<std::uint16_t>(payload.size());
  header.dst = 2;
  header.src = 1;
  header.seq = static_cast<std::uint16_t>(tx_index);

  // The transmission's waveform is one signal: modulate it once, with
  // the first targeted listener's modem as the reference (ReceiveAt
  // re-modulates only for a listener whose modem config differs).
  const Listener& reference = *listeners_.at(only.value_or(0));
  const phy::ModemConfig& base_modem = reference.params.pipeline.modem;
  const phy::SampleVec base_wave = reference.modulator.Modulate(header, payload);

  SharedDraw shared;
  if (correlation_ == arq::CollisionCorrelation::kSharedInterferer) {
    shared.tx_seed = seed.value_or(SeedForTransmission(sender, tx_index));
    Rng tx_rng(shared.tx_seed);
    shared.carrier_phase = tx_rng.UniformDouble(0.0, 2.0 * std::numbers::pi);
    shared.collided = tx_rng.Bernoulli(climate_.collision_probability);
    if (shared.collided) {
      shared.burst_octets.resize(climate_.interferer_octets);
      for (auto& b : shared.burst_octets) {
        b = static_cast<std::uint8_t>(tx_rng.UniformInt(256));
      }
      shared.burst_phase = tx_rng.UniformDouble(0.0, 2.0 * std::numbers::pi);
      shared.offset_fraction = tx_rng.UniformDouble();
      shared.burst_wave = reference.modulator.ModulateOctets(shared.burst_octets);
      phy::ApplyCarrierOffset(shared.burst_wave, 0.0, shared.burst_phase);
    }
  }

  std::vector<Reception> receptions;
  if (only.has_value()) {
    receptions.push_back(ReceiveAt(*listeners_.at(*only), *only, header,
                                   payload, bits, shared, base_wave,
                                   base_modem));
    return receptions;
  }
  receptions.reserve(listeners_.size());
  for (ListenerId id = 0; id < listeners_.size(); ++id) {
    receptions.push_back(ReceiveAt(*listeners_[id], id, header, payload, bits,
                                   shared, base_wave, base_modem));
  }

  // Joint-loss accounting vs listener 0, broadcast transmissions only.
  std::vector<arq::ReceptionLossFlags> flags;
  std::vector<arq::ListenerLossStats*> stats;
  flags.reserve(receptions.size());
  stats.reserve(listeners_.size());
  for (ListenerId id = 0; id < listeners_.size(); ++id) {
    flags.push_back({receptions[id].collided, receptions[id].corrupted});
    stats.push_back(&listeners_[id]->stats);
  }
  arq::AccumulateJointLossStats(flags, stats, medium_stats_);
  return receptions;
}

std::vector<WaveformMedium::Reception> WaveformMedium::Transmit(
    const Transmission& tx) {
  return TransmitImpl(tx.body_bits, tx.sender, tx.seed, std::nullopt);
}

arq::BroadcastBodyChannel WaveformMedium::MakeBroadcastChannel(
    std::size_t sender) {
  auto self = shared_from_this();
  return [self, sender](const BitVec& bits) {
    auto receptions = self->TransmitImpl(bits, sender, std::nullopt,
                                         std::nullopt);
    std::vector<std::vector<phy::DecodedSymbol>> out;
    out.reserve(receptions.size());
    for (auto& r : receptions) out.push_back(std::move(r.symbols));
    return out;
  };
}

arq::BodyChannel WaveformMedium::MakeListenerChannel(ListenerId listener,
                                                     std::size_t sender) {
  if (listener >= listeners_.size()) {
    throw std::invalid_argument("WaveformMedium: no such listener");
  }
  auto self = shared_from_this();
  return [self, listener, sender](const BitVec& bits) {
    return std::move(self->TransmitImpl(bits, sender, std::nullopt, listener)
                         .front()
                         .symbols);
  };
}

const arq::ListenerLossStats& WaveformMedium::StatsFor(
    ListenerId listener) const {
  return listeners_.at(listener)->stats;
}

}  // namespace ppr::core
