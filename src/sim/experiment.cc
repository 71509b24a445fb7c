#include "sim/experiment.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <map>
#include <memory>

#include "arq/chip_medium.h"
#include "arq/link_sim.h"
#include "arq/recovery_session.h"
#include "collide/runner.h"
#include "common/parallel.h"
#include "fec/gf256.h"
#include "obs/obs.h"
#include "phy/channel.h"

namespace ppr::sim {

double LinkRecoveryStats::OverhearLossGivenDirectLoss() const {
  if (direct_loss_frames == 0) return 0.0;
  return static_cast<double>(joint_loss_frames) /
         static_cast<double>(direct_loss_frames);
}

double LinkResult::Fdr(std::size_t scheme_index) const {
  if (frames_sent == 0) return 0.0;
  return schemes[scheme_index].equivalent_frames_delivered /
         static_cast<double>(frames_sent);
}

double LinkResult::ThroughputBps(std::size_t scheme_index,
                                 const SchemeConfig& scheme,
                                 std::size_t payload_octets,
                                 double duration_s) const {
  if (duration_s <= 0.0) return 0.0;
  const double overhead_factor =
      static_cast<double>(payload_octets) /
      static_cast<double>(SchemeAirtimeOctets(scheme, payload_octets));
  return static_cast<double>(schemes[scheme_index].delivered_bits) *
         overhead_factor / duration_s;
}

TestbedExperiment::TestbedExperiment(const ExperimentConfig& config)
    : config_(config),
      topology_(config.testbed),
      medium_(topology_.Positions(), config.medium) {}

ExperimentResult TestbedExperiment::Run(
    const std::vector<SchemeConfig>& schemes,
    const ReceptionObserver& observer) const {
  // Build the traffic schedule once; every receiver hears the same air.
  std::vector<std::size_t> senders;
  senders.reserve(topology_.NumSenders());
  for (std::size_t i = 0; i < topology_.NumSenders(); ++i) {
    senders.push_back(topology_.SenderId(i));
  }

  ReceiverModel model(medium_, config_.receiver);
  TrafficConfig traffic = config_.traffic;
  traffic.frame_total_chips = model.Layout().TotalChips();
  traffic.payload_bits = config_.receiver.payload_octets * 8;
  const auto schedule = GenerateSchedule(traffic, medium_, senders);

  // Frames sent per sender (denominator of every link FDR).
  std::map<std::size_t, std::size_t> frames_sent;
  for (const auto& t : schedule) ++frames_sent[t.sender];

  const std::size_t payload_bits = config_.receiver.payload_octets * 8;

  ExperimentResult result;
  result.total_transmissions = schedule.size();
  result.duration_s = traffic.duration_s;
  result.payload_octets = config_.receiver.payload_octets;

  // Audible links, in deterministic order.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> link_index;
  for (std::size_t r = 0; r < topology_.NumReceivers(); ++r) {
    const std::size_t receiver = topology_.ReceiverId(r);
    for (std::size_t s = 0; s < topology_.NumSenders(); ++s) {
      const std::size_t sender = topology_.SenderId(s);
      const double snr = medium_.LinkSnrDb(sender, receiver);
      if (snr < config_.min_link_snr_db) continue;
      LinkResult link;
      link.sender = sender;
      link.receiver = receiver;
      link.snr_db = snr;
      link.frames_sent = frames_sent.count(sender) ? frames_sent[sender] : 0;
      link.schemes.resize(schemes.size());
      link_index[{sender, receiver}] = result.links.size();
      result.links.push_back(link);
    }
  }

  for (std::size_t r = 0; r < topology_.NumReceivers(); ++r) {
    const std::size_t receiver = topology_.ReceiverId(r);
    model.ProcessReceiver(
        receiver, schedule, [&](const ReceptionRecord& record) {
          if (observer) observer(record, model);
          const auto it = link_index.find({record.sender, receiver});
          if (it == link_index.end()) return;
          LinkResult& link = result.links[it->second];
          for (std::size_t k = 0; k < schemes.size(); ++k) {
            const auto outcome = EvaluateDelivery(record, model, schemes[k]);
            auto& stats = link.schemes[k];
            if (outcome.acquired) ++stats.acquired_frames;
            stats.delivered_bits += outcome.delivered_bits;
            stats.wrong_bits += outcome.wrong_bits;
            stats.equivalent_frames_delivered +=
                static_cast<double>(outcome.delivered_bits) /
                static_cast<double>(payload_bits);
          }
        });
  }
  return result;
}

namespace {

// Gilbert-Elliott parameters for a hop at the given SNR: clean-state
// chip errors at the link SNR (plus the receiver model's error floor);
// impairment bursts per the model.
arq::GilbertElliottParams LinkGeParams(const ExperimentConfig& config,
                                       double snr_db) {
  arq::GilbertElliottParams ge;
  ge.chip_error_good =
      std::min(0.5, phy::ChipErrorProbability(std::pow(10.0, snr_db / 10.0)) +
                        config.receiver.good_chip_floor);
  ge.chip_error_bad = config.receiver.impaired_chip_error;
  ge.p_good_to_bad = config.receiver.impairment_rate;
  ge.p_bad_to_good = config.receiver.impairment_exit;
  return ge;
}

// One audible link's work item: everything a worker needs, including
// its pre-forked RNG, fixed before any thread runs.
struct LinkJob {
  std::size_t sender = 0;
  std::size_t receiver = 0;
  double snr_db = 0.0;
  std::vector<std::size_t> relays;  // best-first roster, may be empty
  std::vector<double> overhear_snr_db;  // parallel to relays
  std::vector<double> relay_snr_db;
  Rng link_rng{0};
};

LinkRecoveryStats RunOneLink(const ExperimentConfig& config,
                             const RecoveryExperimentConfig& recovery,
                             const phy::ChipCodebook& codebook, LinkJob job,
                             obs::Snapshot* metrics) {
  // Everything this link runs — sessions, chip medium, coded repair —
  // records into a registry private to the link; wall-clock timings are
  // excluded so the snapshot depends only on the link's (deterministic)
  // work, not on scheduling. GF(256) kernel work is attributed via
  // before/after thread-local deltas: only this link runs on this
  // thread in between.
  obs::MetricRegistry registry;
  obs::ScopedObsContext obs_scope(&registry, /*tracer=*/nullptr,
                                  /*record_timings=*/false);
  std::array<fec::GfOpStats, fec::kGfImplCount> gf_before;
  const auto gf_impls = fec::GfAvailableImpls();
  for (const fec::GfImpl impl : gf_impls) {
    gf_before[static_cast<std::size_t>(impl)] = fec::GfThreadStatsFor(impl);
  }
  LinkRecoveryStats link;
  link.sender = job.sender;
  link.receiver = job.receiver;
  link.snr_db = job.snr_db;
  link.relays = job.relays;
  link.relay = job.relays.empty() ? kNoRelay : job.relays.front();
  Rng channel_rng = job.link_rng.Fork();
  Rng payload_rng = job.link_rng.Fork();
  const bool use_relay = !job.relays.empty();

  // The link's one strategy, sized to the roster it recruited: a
  // relay-mode link nobody overhears runs the two-party coded exchange.
  arq::PpArqConfig arq_config = recovery.arq;
  arq_config.relay_parties = job.relays.size();
  const auto strategy = arq::MakeRecoveryStrategy(arq_config);
  arq::MultiRelayExchangeChannels channels;
  std::shared_ptr<arq::ChipMedium> medium;
  // The relay-hop channels hold pointers to their Rngs, so those
  // streams need addresses stable for the whole link (deque never
  // relocates).
  std::deque<Rng> relay_rngs;
  if (use_relay) {
    // The source's broadcast domain is one shared chip-level medium:
    // destination first (listener 0, the joint-loss reference), then
    // each recruited overhearer. The medium seed is a pure function of
    // (experiment seed, link), so neither roster size nor thread
    // schedule can reorder the shared-interferer draws; in independent
    // mode every listener replays the legacy per-hop channel from its
    // own forked stream (overhear then relay hop, per roster slot, the
    // pre-medium fork order).
    medium = arq::ChipMedium::Create(
        codebook, recovery.correlation,
        arq::SeedForTransmission(recovery.seed, job.sender, job.receiver),
        LinkGeParams(config, job.snr_db));
    medium->AddListener(LinkGeParams(config, job.snr_db), channel_rng);
    for (std::size_t i = 0; i < job.relays.size(); ++i) {
      medium->AddListener(LinkGeParams(config, job.overhear_snr_db[i]),
                          job.link_rng.Fork());
      relay_rngs.push_back(job.link_rng.Fork());
      channels.relay_to_destination.push_back(arq::MakeGilbertElliottChannel(
          codebook, LinkGeParams(config, job.relay_snr_db[i]),
          relay_rngs.back()));
    }
    channels.initial_broadcast = medium->MakeBroadcastChannel();
    channels.source_to_destination = medium->MakeUnicastChannel(0);
  } else {
    channels.source_to_destination = arq::MakeGilbertElliottChannel(
        codebook, LinkGeParams(config, job.snr_db), channel_rng);
  }

  // Collision episodes ride only on two-party kCollisionResolve links;
  // their draws come from SeedForCollisionRound — disjoint from every
  // channel/payload stream, so contention 0 consumes nothing and the
  // run is bit-identical to plain coded repair.
  const bool collision_mode =
      !use_relay &&
      recovery.arq.recovery == arq::RecoveryMode::kCollisionResolve &&
      recovery.collision_contention > 0.0;
  const std::uint64_t link_medium_seed =
      arq::SeedForTransmission(recovery.seed, job.sender, job.receiver);
  collide::CollisionListenerConfig listener_config;
  listener_config.strip = recovery.collision_strip;
  listener_config.codewords_per_fec_symbol =
      recovery.arq.codewords_per_fec_symbol;
  collide::CollisionEpisodeParams episode_params;
  episode_params.b_octets = recovery.collision_interferer_octets
                                ? recovery.collision_interferer_octets
                                : recovery.payload_octets;
  episode_params.chip_error_p = recovery.collision_chip_error_p;
  episode_params.max_offset = recovery.collision_max_offset;

  for (std::size_t p = 0; p < recovery.packets_per_link; ++p) {
    BitVec payload;
    for (std::size_t b = 0; b < recovery.payload_octets; ++b) {
      payload.AppendUint(payload_rng.UniformInt(256), 8);
    }
    bool collided = false;
    Rng episode_rng(0);  // seeded per packet below on collision links
    if (collision_mode) {
      // Under kSharedInterferer one interferer draw serves the whole
      // broadcast (the episode is a property of the transmission);
      // under kIndependent each receiver experiences its own collision
      // draw, so the receiver identity salts the stream.
      episode_rng = Rng(
          recovery.correlation == arq::CollisionCorrelation::kSharedInterferer
              ? arq::SeedForCollisionRound(link_medium_seed, p, 0)
              : arq::SeedForCollisionRound(link_medium_seed, p,
                                           1 + job.receiver));
      collided = episode_rng.Bernoulli(recovery.collision_contention);
    }
    arq::SessionRunStats stats;
    if (collided) {
      auto outcome = collide::RunCollisionRecoveryExchange(
          payload, arq_config, *strategy, channels.source_to_destination,
          episode_params, episode_rng, listener_config,
          recovery.collision_resolve, recovery.max_rounds);
      stats = std::move(outcome.stats);
      if (stats.totals.success) ++link.collided_recovered_frames;
      ++link.collision_episodes;
      link.collision_codewords_stripped += outcome.collide.codewords_stripped;
      link.collision_equations_banked += outcome.equations_banked;
      link.collision_pairs_resolved += outcome.collide.pairs_resolved;
      link.collision_abandoned += outcome.collide.episodes_abandoned;
      link.collision_rank_gained += outcome.rank_gained;
    } else {
      stats = arq::RunMultiRelayRecoveryExchange(
          payload, arq_config, *strategy, channels, recovery.max_rounds);
      for (std::size_t i = 0; i < job.relays.size(); ++i) {
        link.relay_repair_bits +=
            stats.parties[arq::kSessionRelayId + i].repair_bits;
      }
      link.max_round_relay_bits =
          std::max(link.max_round_relay_bits, stats.max_round_relay_bits);
      link.relay_deferrals += stats.relay_deferrals;
    }
    link.source_repair_bits += stats.parties[arq::kSessionSourceId].repair_bits;
    ++link.packets;
    if (stats.totals.success) ++link.completed;
    link.feedback_bits += stats.totals.feedback_bits;
    link.feedback_rounds += stats.rounds;
    for (const auto bits : stats.totals.retransmission_bits) {
      link.repair_bits += bits;
    }
  }
  if (medium) {
    const auto& ms = medium->medium_stats();
    link.direct_collision_frames = ms.reference_collision_frames;
    link.joint_collision_frames = ms.joint_collision_frames;
    link.direct_loss_frames = ms.reference_corrupted_frames;
    link.joint_loss_frames = ms.joint_corrupted_frames;
    link.collided_recovered_frames = ms.reference_collided_recovered_frames;
  }
  for (const fec::GfImpl impl : gf_impls) {
    const fec::GfOpStats delta =
        fec::GfThreadStatsFor(impl) - gf_before[static_cast<std::size_t>(impl)];
    if (delta.calls == 0) continue;
    const obs::LabelSet labels = {
        {"impl", std::string(fec::GfImplName(impl))}};
    registry.GetCounter("fec.gf256.calls", labels)->Add(delta.calls);
    registry.GetCounter("fec.gf256.bytes", labels)->Add(delta.bytes);
  }
  if (metrics) *metrics = registry.TakeSnapshot();
  return link;
}

}  // namespace

RecoveryExperimentResult RunLinkRecoveryExperiment(
    const ExperimentConfig& config, const RecoveryExperimentConfig& recovery,
    const TestbedTopology& topology, const RadioMedium& medium,
    OverhearingRelayCache& relay_cache) {
  const phy::ChipCodebook codebook;
  const bool relay_mode =
      recovery.arq.recovery == arq::RecoveryMode::kRelayCodedRepair;

  // Serial pass: enumerate audible links and fix their seeds. Every
  // (sender, receiver) pair forks `root` in the same order whether or
  // not it is audible, so the draw sequence is identical across
  // recovery modes and thread counts. Relay rosters come from the
  // shared cache, computed at most once per (link, min_snr) however
  // many legs a sweep runs.
  std::vector<LinkJob> jobs;
  Rng root(recovery.seed);
  for (std::size_t r = 0; r < topology.NumReceivers(); ++r) {
    for (std::size_t i = 0; i < topology.NumSenders(); ++i) {
      const std::size_t sender = topology.SenderId(i);
      const std::size_t receiver = topology.ReceiverId(r);
      const double snr_db = medium.LinkSnrDb(sender, receiver);
      Rng link_rng = root.Fork();
      if (snr_db < config.min_link_snr_db) continue;
      LinkJob job;
      job.sender = sender;
      job.receiver = receiver;
      job.snr_db = snr_db;
      job.link_rng = link_rng;
      if (relay_mode && recovery.max_relays > 0) {
        const auto& overhearers =
            relay_cache.Get(sender, receiver, recovery.relay_min_snr_db);
        const std::size_t take =
            std::min(recovery.max_relays, overhearers.size());
        for (std::size_t k = 0; k < take; ++k) {
          const std::size_t relay = overhearers[k];
          job.relays.push_back(relay);
          job.overhear_snr_db.push_back(medium.LinkSnrDb(sender, relay));
          job.relay_snr_db.push_back(medium.LinkSnrDb(relay, receiver));
        }
      }
      jobs.push_back(job);
    }
  }

  // Parallel pass: links are independent and write disjoint slots.
  std::vector<LinkRecoveryStats> links(jobs.size());
  std::vector<obs::Snapshot> link_metrics(jobs.size());
  ParallelFor(jobs.size(), recovery.num_threads, [&](std::size_t j) {
    links[j] =
        RunOneLink(config, recovery, codebook, jobs[j], &link_metrics[j]);
  });

  RecoveryExperimentResult result;
  result.links = std::move(links);
  // Merge per-link snapshots in link (job) order — independent of which
  // worker ran which link, so the merged snapshot is thread-invariant.
  for (const auto& snap : link_metrics) result.metrics.Merge(snap);
  for (const auto& link : result.links) {
    result.packets += link.packets;
    result.completed += link.completed;
    result.total_repair_bits += link.repair_bits;
    result.total_feedback_bits += link.feedback_bits;
    result.total_source_repair_bits += link.source_repair_bits;
    result.total_relay_repair_bits += link.relay_repair_bits;
    result.total_direct_collision_frames += link.direct_collision_frames;
    result.total_joint_collision_frames += link.joint_collision_frames;
    result.total_direct_loss_frames += link.direct_loss_frames;
    result.total_joint_loss_frames += link.joint_loss_frames;
    result.total_collision_episodes += link.collision_episodes;
    result.total_collision_codewords_stripped +=
        link.collision_codewords_stripped;
    result.total_collision_equations_banked += link.collision_equations_banked;
    result.total_collision_pairs_resolved += link.collision_pairs_resolved;
    result.total_collision_abandoned += link.collision_abandoned;
    result.total_collision_rank_gained += link.collision_rank_gained;
    result.total_collided_recovered_frames += link.collided_recovered_frames;
  }
  return result;
}

RecoveryExperimentResult RunLinkRecoveryExperiment(
    const ExperimentConfig& config, const RecoveryExperimentConfig& recovery) {
  const TestbedTopology topology(config.testbed);
  const RadioMedium medium(topology.Positions(), config.medium);
  OverhearingRelayCache relay_cache(medium);
  return RunLinkRecoveryExperiment(config, recovery, topology, medium,
                                   relay_cache);
}

ExperimentConfig MakePaperConfig(double offered_load_bps, bool carrier_sense,
                                 double duration_s, std::uint64_t seed) {
  ExperimentConfig config;
  config.testbed.seed = 7;  // fixed topology across loads, like the paper
  config.medium = IndoorMediumConfig(config.testbed, /*seed=*/11);
  config.traffic.offered_load_bps = offered_load_bps;
  config.traffic.carrier_sense = carrier_sense;
  config.traffic.duration_s = duration_s;
  config.traffic.seed = seed;
  config.receiver.payload_octets = 1500;
  config.receiver.seed = seed ^ 0xABCDEF;
  config.min_link_snr_db = 3.0;
  return config;
}

}  // namespace ppr::sim
