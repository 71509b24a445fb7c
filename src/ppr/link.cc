#include "ppr/link.h"

#include "arq/chip_medium.h"
#include "ppr/medium.h"

namespace ppr::core {

arq::BodyChannel MakeWaveformChannel(const WaveformChannelParams& params) {
  auto medium = WaveformMedium::Create(arq::CollisionCorrelation::kIndependent,
                                       params.seed);
  const auto id = medium->AddListener(ListenerFromChannelParams(params));
  return medium->MakeListenerChannel(id);
}

arq::ArqRunStats RunWaveformPpArq(std::size_t payload_octets,
                                  const arq::PpArqConfig& arq_config,
                                  const WaveformChannelParams& params,
                                  Rng& payload_rng) {
  BitVec payload;
  for (std::size_t i = 0; i < payload_octets; ++i) {
    payload.AppendUint(payload_rng.UniformInt(256), 8);
  }
  const auto channel = MakeWaveformChannel(params);
  return arq::RunPpArqExchange(payload, arq_config, channel);
}

arq::SessionRunStats RunWaveformMultiRelayRecovery(
    std::size_t payload_octets, const arq::PpArqConfig& arq_config,
    const WaveformChannelParams& direct,
    const std::vector<RelayWaveformParams>& relays, Rng& payload_rng,
    arq::CollisionCorrelation correlation,
    WaveformMediumStats* medium_stats) {
  BitVec payload;
  for (std::size_t i = 0; i < payload_octets; ++i) {
    payload.AppendUint(payload_rng.UniformInt(256), 8);
  }
  arq::PpArqConfig config = arq_config;
  config.recovery = arq::RecoveryMode::kRelayCodedRepair;
  config.relay_parties = relays.size();

  // One shared medium carries the source's broadcast: the destination
  // is listener 0, each relay's overheard copy a further listener. The
  // shared-interferer climate (presence, burst length) is the direct
  // path's; every listener projects the burst at its own relative
  // power.
  auto medium = WaveformMedium::Create(
      correlation, direct.seed,
      {direct.collision_probability, direct.interferer_octets});
  medium->AddListener(ListenerFromChannelParams(direct));
  for (const auto& relay : relays) {
    medium->AddListener(ListenerFromChannelParams(relay.overhear));
  }

  arq::MultiRelayExchangeChannels channels;
  channels.initial_broadcast = medium->MakeBroadcastChannel();
  channels.source_to_destination = medium->MakeListenerChannel(0);
  channels.relay_to_destination.reserve(relays.size());
  for (std::size_t i = 0; i < relays.size(); ++i) {
    WaveformChannelParams hop = relays[i].relay_link;
    if (correlation == arq::CollisionCorrelation::kSharedInterferer) {
      // Centralized seed ownership: the relay's transmit domain derives
      // from the medium chain instead of whatever ad-hoc seed the hop
      // params carry, so roster size cannot reorder draws.
      hop.seed = arq::SeedForTransmission(direct.seed,
                                          arq::kSessionRelayId + i, 0);
    }
    channels.relay_to_destination.push_back(MakeWaveformChannel(hop));
  }

  const auto strategy = arq::MakeRecoveryStrategy(config);
  auto stats = arq::RunMultiRelayRecoveryExchange(payload, config, *strategy,
                                                  channels);
  if (medium_stats) {
    medium_stats->medium = medium->medium_stats();
    medium_stats->listeners.clear();
    for (std::size_t i = 0; i < medium->num_listeners(); ++i) {
      medium_stats->listeners.push_back(medium->StatsFor(i));
    }
  }
  return stats;
}

RecoveryComparison CompareRecoveryStrategies(
    std::size_t payload_octets, const arq::PpArqConfig& arq_config,
    const WaveformChannelParams& params, std::uint64_t payload_seed,
    const RelayWaveformParams* relay, arq::CollisionCorrelation correlation) {
  RecoveryComparison out;
  arq::PpArqConfig config = arq_config;

  config.recovery = arq::RecoveryMode::kChunkRetransmit;
  Rng chunk_rng(payload_seed);
  out.chunk = RunWaveformPpArq(payload_octets, config, params, chunk_rng);

  config.recovery = arq::RecoveryMode::kCodedRepair;
  Rng coded_rng(payload_seed);
  out.coded = RunWaveformPpArq(payload_octets, config, params, coded_rng);

  if (relay) {
    Rng relay_rng(payload_seed);
    out.relay = RunWaveformMultiRelayRecovery(payload_octets, arq_config,
                                              params, {*relay}, relay_rng,
                                              correlation, &out.relay_medium);
    out.collided_recovered =
        out.relay_medium.medium.reference_collided_recovered_frames;
  }
  return out;
}

}  // namespace ppr::core
