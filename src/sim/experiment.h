// Experiment orchestration: one simulated run of the 27-node testbed at
// a given offered load, evaluated under any set of delivery schemes.
// This is the engine behind the paper's Figures 3 and 8-15 and Table 2.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "arq/link_sim.h"
#include "arq/pp_arq.h"
#include "collide/zigzag.h"
#include "obs/metrics.h"
#include "sim/delivery.h"
#include "sim/medium.h"
#include "sim/receiver_model.h"
#include "sim/topology.h"
#include "sim/traffic.h"

namespace ppr::sim {

struct ExperimentConfig {
  TestbedConfig testbed;
  MediumConfig medium;
  TrafficConfig traffic;
  ReceiverModelConfig receiver;
  // Links whose interference-free SNR falls below this never deliver
  // anything useful and are excluded from per-link distributions,
  // mirroring the paper's "senders a sink can hear".
  double min_link_snr_db = 0.0;
};

// Accumulated statistics for one (sender, receiver) link under one
// scheme.
struct LinkSchemeStats {
  double equivalent_frames_delivered = 0.0;  // sum of per-frame fractions
  std::size_t delivered_bits = 0;            // correct payload bits
  std::size_t wrong_bits = 0;                // PPR miss bits
  std::size_t acquired_frames = 0;
};

struct LinkResult {
  std::size_t sender = 0;
  std::size_t receiver = 0;
  double snr_db = 0.0;
  std::size_t frames_sent = 0;  // frames the sender transmitted
  std::vector<LinkSchemeStats> schemes;  // parallel to the scheme list

  // Equivalent frame delivery rate (Figs. 8-10): equivalent frames
  // delivered divided by frames transmitted on the link.
  double Fdr(std::size_t scheme_index) const;

  // Per-link goodput in bits/s, accounting scheme airtime overhead
  // (Figs. 11-12).
  double ThroughputBps(std::size_t scheme_index, const SchemeConfig& scheme,
                       std::size_t payload_octets, double duration_s) const;
};

struct ExperimentResult {
  std::vector<LinkResult> links;
  std::size_t total_transmissions = 0;
  double duration_s = 0.0;
  std::size_t payload_octets = 0;
};

// Observer invoked for every audible reception; used by the
// figure-specific benches to collect hint statistics (Hamming
// distributions, miss lengths) from the same run.
using ReceptionObserver =
    std::function<void(const ReceptionRecord&, const ReceiverModel&)>;

class TestbedExperiment {
 public:
  explicit TestbedExperiment(const ExperimentConfig& config);

  // Simulates one run and evaluates `schemes` over every reception.
  ExperimentResult Run(const std::vector<SchemeConfig>& schemes,
                       const ReceptionObserver& observer = nullptr) const;

  const RadioMedium& medium() const { return medium_; }
  const TestbedTopology& topology() const { return topology_; }

 private:
  ExperimentConfig config_;
  TestbedTopology topology_;
  RadioMedium medium_;
};

// Canonical experiment configuration matching the paper's setup:
// 1500-byte frames, 23 senders, 4 receivers, given offered load per
// node (bits/s) and carrier-sense setting.
ExperimentConfig MakePaperConfig(double offered_load_bps, bool carrier_sense,
                                 double duration_s = 60.0,
                                 std::uint64_t seed = 42);

// ------------------------------------------------------------------------
// Per-link PP-ARQ recovery experiment: replays every audible testbed
// link as a bursty chip-error channel at the link's SNR (clean-state
// error rate from the SNR, impairment bursts from the receiver-model
// parameters) and runs full PP-ARQ exchanges under the recovery
// strategy `recovery.arq.recovery` selects. This is how a strategy
// choice (chunk retransmission vs coded vs relay-coded repair) is
// evaluated across the whole testbed rather than a single hand-built
// link. Under kRelayCodedRepair each link recruits its top
// `max_relays` overhearers best-bottleneck-first (sim/topology.h:
// OverhearingRelays, memoized via OverhearingRelayCache across a
// sweep's strategy/relay-count legs). Every link runs one strategy
// sized to the roster it recruited, so a link nobody overhears runs the
// two-party exchange (an empty roster is plain coded repair).
//
// Links are independent, so the sweep is sharded across a thread pool
// (common/parallel.h); per-link seeding is fixed before any worker
// runs, making results identical at every thread count.

struct RecoveryExperimentConfig {
  arq::PpArqConfig arq;  // includes the RecoveryMode under test
  std::size_t payload_octets = 250;
  std::size_t packets_per_link = 4;
  std::size_t max_rounds = 32;
  std::uint64_t seed = 99;
  std::size_t num_threads = 0;  // 0 = hardware concurrency
  // kRelayCodedRepair: the bottleneck SNR an overhearer must clear to
  // be recruited. Lower than the audibility threshold on purpose: a
  // marginal relay still contributes rank-increasing equations, and the
  // destination's burst split discounts lossy parties on its own.
  double relay_min_snr_db = 3.0;
  // kRelayCodedRepair: how many of a link's ranked overhearers are
  // recruited (the session is sized to however many actually exist,
  // down to two-party when none do). The per-round relay airtime
  // budget rides in arq.relay_airtime_budget_bits.
  std::size_t max_relays = 1;
  // How collisions correlate across the source's co-located listeners
  // (the destination and every recruited relay) on each link.
  // kIndependent keeps the legacy private per-hop impairment draws;
  // kSharedInterferer draws ONE impairment-burst timeline per
  // transmission and projects it through every listener
  // (arq::ChipMedium) — the broadcast-medium regime the paper's
  // testbed actually exhibits, where a collision that costs the
  // destination its copy usually costs the overhearers theirs too.
  arq::CollisionCorrelation correlation =
      arq::CollisionCorrelation::kIndependent;
  // kCollisionResolve: probability that a packet's initial transmission
  // is a two-party double collision (the same interfering packet heard
  // twice at different offsets — the ZigZag precondition). Episode
  // draws come from arq::SeedForCollisionRound, a stream disjoint from
  // every existing seed chain, so 0.0 keeps any mode bit-identical to
  // a run without the subsystem.
  double collision_contention = 0.0;
  std::size_t collision_interferer_octets = 0;  // 0 = payload_octets
  double collision_chip_error_p = 0.005;  // chip noise inside a collision
  std::size_t collision_max_offset = 0;   // codewords; 0 = auto (body/4)
  collide::StripConfig collision_strip;
  // Off = the discard baseline: episodes still collide (and cost the
  // same initial airtime) but nothing is distilled from them.
  bool collision_resolve = true;
};

inline constexpr std::size_t kNoRelay = static_cast<std::size_t>(-1);

struct LinkRecoveryStats {
  std::size_t sender = 0;
  std::size_t receiver = 0;
  double snr_db = 0.0;
  std::size_t packets = 0;
  std::size_t completed = 0;
  std::size_t repair_bits = 0;    // forward repair traffic (excl. initial)
  std::size_t feedback_bits = 0;  // reverse-direction traffic
  std::size_t feedback_rounds = 0;
  // kRelayCodedRepair: the recruited overhearers best-first (empty when
  // the link ran two-party; `relay` mirrors the front entry for the
  // single-relay consumers) and the split of repair_bits between the
  // source and the relay set.
  std::size_t relay = kNoRelay;
  std::vector<std::size_t> relays;
  std::size_t source_repair_bits = 0;
  std::size_t relay_repair_bits = 0;
  // Relay airtime scheduling (arq::SessionRunStats):
  // max_round_relay_bits is the MAX across the link's packets (the
  // quantity a budget caps), relay_deferrals the sum.
  std::size_t max_round_relay_bits = 0;
  std::size_t relay_deferrals = 0;
  // Shared-medium joint-loss accounting over the link's initial
  // (broadcast) transmissions, relay links only (arq::ChipMedium;
  // zero on two-party links). "Collision" = an impairment burst
  // overlapped that copy; "loss" = >=1 codeword decoded wrong.
  std::size_t direct_collision_frames = 0;  // destination copy hit
  std::size_t joint_collision_frames = 0;   // destination AND >=1 relay hit
  std::size_t direct_loss_frames = 0;       // destination copy corrupted
  std::size_t joint_loss_frames = 0;        // ...and >=1 relay's copy too
  // P(some relay's copy lost | the destination's copy lost): the
  // overhear-loss-given-direct-loss correlation. 0 without relays or
  // direct losses.
  double OverhearLossGivenDirectLoss() const;
  // kCollisionResolve: collision-episode accounting on this link
  // (src/collide/). `collided_recovered_frames` counts initially
  // collided packets the exchange nonetheless delivered — on relay
  // links it is the shared medium's collided-but-clean count instead.
  std::size_t collision_episodes = 0;
  std::size_t collision_codewords_stripped = 0;
  std::size_t collision_equations_banked = 0;
  std::size_t collision_pairs_resolved = 0;
  std::size_t collision_abandoned = 0;
  std::size_t collision_rank_gained = 0;
  std::size_t collided_recovered_frames = 0;
};

struct RecoveryExperimentResult {
  std::vector<LinkRecoveryStats> links;
  std::size_t packets = 0;
  std::size_t completed = 0;
  std::size_t total_repair_bits = 0;
  std::size_t total_feedback_bits = 0;
  std::size_t total_source_repair_bits = 0;
  std::size_t total_relay_repair_bits = 0;
  std::size_t total_direct_collision_frames = 0;
  std::size_t total_joint_collision_frames = 0;
  std::size_t total_direct_loss_frames = 0;
  std::size_t total_joint_loss_frames = 0;
  std::size_t total_collision_episodes = 0;
  std::size_t total_collision_codewords_stripped = 0;
  std::size_t total_collision_equations_banked = 0;
  std::size_t total_collision_pairs_resolved = 0;
  std::size_t total_collision_abandoned = 0;
  std::size_t total_collision_rank_gained = 0;
  std::size_t total_collided_recovered_frames = 0;
  // Per-link obs::MetricRegistry snapshots (sessions, coded repair,
  // medium, GF(256) backend bytes), merged in link order. Per-link
  // work is deterministic and wall-clock timings are excluded, so this
  // is byte-identical at every num_threads. Empty under PPR_OBS_OFF.
  obs::Snapshot metrics;
};

RecoveryExperimentResult RunLinkRecoveryExperiment(
    const ExperimentConfig& config, const RecoveryExperimentConfig& recovery);

// Same run against a prebuilt topology/medium, recruiting relays
// through the shared cache — how a sweep's legs avoid recomputing each
// link's overhearer roster.
RecoveryExperimentResult RunLinkRecoveryExperiment(
    const ExperimentConfig& config, const RecoveryExperimentConfig& recovery,
    const TestbedTopology& topology, const RadioMedium& medium,
    OverhearingRelayCache& relay_cache);

}  // namespace ppr::sim
