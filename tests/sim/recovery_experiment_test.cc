// Testbed-wide recovery-strategy experiments: the OverhearingRelays
// topology hook, the thread-pool sharding of RunLinkRecoveryExperiment
// (deterministic at any thread count), and the three strategies over
// one prebuilt topology.
#include <gtest/gtest.h>

#include <string>

#include "fec/gf256.h"
#include "sim/experiment.h"

namespace ppr::sim {
namespace {

ExperimentConfig SmallConfig() {
  auto config = MakePaperConfig(3500.0, true, /*duration_s=*/1.0);
  // Dense enough that some audible links have an overhearer in range.
  config.testbed.num_senders = 9;
  config.testbed.num_receivers = 2;
  config.medium = IndoorMediumConfig(config.testbed, /*seed=*/11);
  config.min_link_snr_db = 6.0;
  return config;
}

RecoveryExperimentConfig SmallRecovery() {
  RecoveryExperimentConfig recovery;
  recovery.payload_octets = 60;
  recovery.packets_per_link = 2;
  recovery.seed = 88;
  return recovery;
}

TEST(OverhearingRelaysTest, OrdersByBottleneckSnrAndExcludesEndpoints) {
  const auto config = SmallConfig();
  const TestbedTopology topology(config.testbed);
  const RadioMedium medium(topology.Positions(), config.medium);
  const std::size_t sender = topology.SenderId(0);
  const std::size_t receiver = topology.ReceiverId(0);
  const auto relays = OverhearingRelays(medium, sender, receiver, -100.0);
  ASSERT_EQ(relays.size(), topology.NumNodes() - 2);
  double prev = 1e9;
  for (const auto node : relays) {
    EXPECT_NE(node, sender);
    EXPECT_NE(node, receiver);
    const double bottleneck = std::min(medium.LinkSnrDb(sender, node),
                                       medium.LinkSnrDb(node, receiver));
    EXPECT_LE(bottleneck, prev);
    prev = bottleneck;
  }
  // A demanding threshold keeps only the overhearers that clear it.
  const auto strong = OverhearingRelays(medium, sender, receiver, 10.0);
  EXPECT_LT(strong.size(), relays.size());
  for (const auto node : strong) {
    EXPECT_GE(std::min(medium.LinkSnrDb(sender, node),
                       medium.LinkSnrDb(node, receiver)),
              10.0);
  }
}

void ExpectSameResults(const RecoveryExperimentResult& a,
                       const RecoveryExperimentResult& b) {
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].sender, b.links[i].sender);
    EXPECT_EQ(a.links[i].receiver, b.links[i].receiver);
    EXPECT_EQ(a.links[i].relay, b.links[i].relay);
    EXPECT_EQ(a.links[i].completed, b.links[i].completed);
    EXPECT_EQ(a.links[i].repair_bits, b.links[i].repair_bits);
    EXPECT_EQ(a.links[i].source_repair_bits, b.links[i].source_repair_bits);
    EXPECT_EQ(a.links[i].relay_repair_bits, b.links[i].relay_repair_bits);
    EXPECT_EQ(a.links[i].feedback_bits, b.links[i].feedback_bits);
    EXPECT_EQ(a.links[i].feedback_rounds, b.links[i].feedback_rounds);
    EXPECT_EQ(a.links[i].direct_collision_frames,
              b.links[i].direct_collision_frames);
    EXPECT_EQ(a.links[i].joint_collision_frames,
              b.links[i].joint_collision_frames);
    EXPECT_EQ(a.links[i].direct_loss_frames, b.links[i].direct_loss_frames);
    EXPECT_EQ(a.links[i].joint_loss_frames, b.links[i].joint_loss_frames);
  }
  EXPECT_EQ(a.total_repair_bits, b.total_repair_bits);
  EXPECT_EQ(a.total_feedback_bits, b.total_feedback_bits);
  EXPECT_EQ(a.total_joint_collision_frames, b.total_joint_collision_frames);
  EXPECT_EQ(a.total_joint_loss_frames, b.total_joint_loss_frames);
  // The merged metric snapshot is part of the deterministic contract:
  // identical maps AND identical serialized bytes.
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.metrics.ToJson(), b.metrics.ToJson());
}

// The satellite property: sharding the sweep across a thread pool must
// not change a single bit of the results, because per-link seeds are
// fixed before any worker runs — including multi-relay rosters, whose
// tie-broken recruitment order is a pure function of the medium.
TEST(LinkRecoveryExperimentTest, IdenticalResultsAtAnyThreadCount) {
  const auto config = SmallConfig();
  for (const std::size_t max_relays : {1u, 2u}) {
    for (const auto mode : {arq::RecoveryMode::kCodedRepair,
                            arq::RecoveryMode::kRelayCodedRepair}) {
      auto recovery = SmallRecovery();
      recovery.arq.recovery = mode;
      recovery.max_relays = max_relays;
      recovery.num_threads = 1;
      const auto serial = RunLinkRecoveryExperiment(config, recovery);
      for (const std::size_t threads : {2u, 5u, 16u}) {
        recovery.num_threads = threads;
        const auto sharded = RunLinkRecoveryExperiment(config, recovery);
        ExpectSameResults(serial, sharded);
      }
    }
  }
}

TEST(LinkRecoveryExperimentTest, RelayModeRecruitsOverhearers) {
  const auto config = SmallConfig();
  auto recovery = SmallRecovery();
  recovery.arq.recovery = arq::RecoveryMode::kRelayCodedRepair;
  const auto result = RunLinkRecoveryExperiment(config, recovery);
  ASSERT_FALSE(result.links.empty());
  EXPECT_EQ(result.completed, result.packets);
  std::size_t with_relay = 0;
  for (const auto& link : result.links) {
    if (link.relay == kNoRelay) {
      EXPECT_TRUE(link.relays.empty());
      continue;
    }
    ++with_relay;
    ASSERT_FALSE(link.relays.empty());
    EXPECT_EQ(link.relays.front(), link.relay);
    EXPECT_LE(link.relays.size(), recovery.max_relays);
    EXPECT_NE(link.relay, link.sender);
    EXPECT_NE(link.relay, link.receiver);
    // The per-party split accounts for all repair traffic.
    EXPECT_EQ(link.source_repair_bits + link.relay_repair_bits,
              link.repair_bits);
  }
  EXPECT_GT(with_relay, 0u);
}

// The tentpole's testbed-level acceptance: sweeping the relay roster
// over identical links, a second relay strictly reduces total repair
// airtime on at least one lossy link, and the shared recruitment cache
// serves the added legs.
TEST(LinkRecoveryExperimentTest, SecondRelayReducesRepairAirtimeSomewhere) {
  auto config = SmallConfig();
  // Admit weaker links and raise the impairment-burst rate so repair
  // rounds actually happen on this shrunken testbed.
  config.min_link_snr_db = 2.0;
  config.receiver.impairment_rate = 0.02;
  auto recovery = SmallRecovery();
  recovery.arq.recovery = arq::RecoveryMode::kRelayCodedRepair;
  recovery.relay_min_snr_db = -10.0;  // deeper roster
  const TestbedTopology topology(config.testbed);
  const RadioMedium medium(topology.Positions(), config.medium);
  OverhearingRelayCache relay_cache(medium);
  recovery.max_relays = 1;
  const auto one = RunLinkRecoveryExperiment(config, recovery, topology,
                                             medium, relay_cache);
  recovery.max_relays = 2;
  const auto two = RunLinkRecoveryExperiment(config, recovery, topology,
                                             medium, relay_cache);
  ASSERT_EQ(one.links.size(), two.links.size());
  EXPECT_EQ(two.completed, two.packets);
  std::size_t improved = 0;
  for (std::size_t i = 0; i < one.links.size(); ++i) {
    ASSERT_EQ(one.links[i].sender, two.links[i].sender);
    ASSERT_EQ(one.links[i].receiver, two.links[i].receiver);
    if (two.links[i].relays.size() < 2) continue;
    if (two.links[i].completed == two.links[i].packets &&
        two.links[i].repair_bits < one.links[i].repair_bits) {
      ++improved;
    }
  }
  EXPECT_GT(improved, 0u);
  // The one- and two-relay legs ran over the same links: the second
  // leg's rosters all came from the shared cache.
  EXPECT_GT(relay_cache.hits(), 0u);
  EXPECT_GT(relay_cache.misses(), 0u);
}

// A dense (>= 4 overhearers per link) roster under a finite per-round
// budget: relay bits per round are capped on every link, the cap
// genuinely binds (some link exceeds it when unbudgeted), deferrals
// are recorded, and recovery still completes.
TEST(LinkRecoveryExperimentTest, AirtimeBudgetCapsDenseRosters) {
  auto config = SmallConfig();
  config.min_link_snr_db = 2.0;
  config.receiver.impairment_rate = 0.02;
  auto recovery = SmallRecovery();
  recovery.arq.recovery = arq::RecoveryMode::kRelayCodedRepair;
  recovery.relay_min_snr_db = -25.0;  // dense: admit marginal overhearers
  recovery.max_relays = 4;
  const auto unbudgeted = RunLinkRecoveryExperiment(config, recovery);
  constexpr std::size_t kBudget = 300;
  recovery.arq.relay_airtime_budget_bits = kBudget;
  const auto budgeted = RunLinkRecoveryExperiment(config, recovery);
  EXPECT_EQ(budgeted.completed, budgeted.packets);
  std::size_t dense_links = 0;
  std::size_t deferrals = 0;
  std::size_t binding_links = 0;
  ASSERT_EQ(budgeted.links.size(), unbudgeted.links.size());
  for (std::size_t i = 0; i < budgeted.links.size(); ++i) {
    EXPECT_LE(budgeted.links[i].max_round_relay_bits, kBudget);
    if (unbudgeted.links[i].max_round_relay_bits > kBudget) ++binding_links;
    if (budgeted.links[i].relays.size() >= 4) ++dense_links;
    deferrals += budgeted.links[i].relay_deferrals;
  }
  EXPECT_GT(dense_links, 0u);
  EXPECT_GT(binding_links, 0u);
  EXPECT_GT(deferrals, 0u);
}

// The shared-medium acceptance: under kSharedInterferer every
// impairment burst that hits the destination's initial reception hits
// the recruited overhearers too, so the overhear-loss-given-direct-loss
// conditional rises to certainty while the independent leg keeps
// coincidental overlap only — and correlated losses visibly devalue the
// relays (fewer relay repair bits, more source repair bits, over the
// identical links and seeds).
TEST(LinkRecoveryExperimentTest, SharedInterfererCorrelatesOverhearLoss) {
  auto config = SmallConfig();
  // Rare bursts on otherwise-clean links: losses are collision-driven,
  // so the correlation mode is what decides whether a relay's copy
  // survives when the destination's dies.
  config.receiver.impairment_rate = 0.002;
  auto recovery = SmallRecovery();
  recovery.packets_per_link = 6;
  recovery.arq.recovery = arq::RecoveryMode::kRelayCodedRepair;
  recovery.relay_min_snr_db = -10.0;
  recovery.max_relays = 2;

  recovery.correlation = arq::CollisionCorrelation::kIndependent;
  const auto independent = RunLinkRecoveryExperiment(config, recovery);
  recovery.correlation = arq::CollisionCorrelation::kSharedInterferer;
  const auto shared = RunLinkRecoveryExperiment(config, recovery);

  EXPECT_EQ(independent.completed, independent.packets);
  EXPECT_EQ(shared.completed, shared.packets);

  // The shared interferer is one draw per transmission: a burst at the
  // destination IS a burst at every relay-holding listener.
  ASSERT_GT(shared.total_direct_collision_frames, 0u);
  EXPECT_EQ(shared.total_joint_collision_frames,
            shared.total_direct_collision_frames);
  ASSERT_GT(shared.total_direct_loss_frames, 0u);
  const double shared_cond =
      static_cast<double>(shared.total_joint_loss_frames) /
      static_cast<double>(shared.total_direct_loss_frames);
  const double independent_cond =
      independent.total_direct_loss_frames == 0
          ? 0.0
          : static_cast<double>(independent.total_joint_loss_frames) /
                static_cast<double>(independent.total_direct_loss_frames);
  EXPECT_GT(shared_cond, 0.0);
  EXPECT_GT(shared_cond, independent_cond);

  // Correlated collisions are the regime where relays stop looking
  // like free repair capacity: their copies die with the
  // destination's, so they carry measurably less of the repair burden.
  EXPECT_LT(shared.total_relay_repair_bits, independent.total_relay_repair_bits);
  EXPECT_GT(shared.total_source_repair_bits,
            independent.total_source_repair_bits);

  // Per-link accessor agrees with the totals' story somewhere.
  std::size_t correlated_links = 0;
  for (const auto& link : shared.links) {
    if (link.OverhearLossGivenDirectLoss() > 0.0) ++correlated_links;
  }
  EXPECT_GT(correlated_links, 0u);
}

// Joint-loss stats are part of the deterministic result contract:
// identical at every thread count, in both correlation modes.
TEST(LinkRecoveryExperimentTest, SharedModeIdenticalAtAnyThreadCount) {
  auto config = SmallConfig();
  config.receiver.impairment_rate = 0.002;
  auto recovery = SmallRecovery();
  recovery.arq.recovery = arq::RecoveryMode::kRelayCodedRepair;
  recovery.relay_min_snr_db = -10.0;
  recovery.max_relays = 2;
  recovery.correlation = arq::CollisionCorrelation::kSharedInterferer;
  recovery.num_threads = 1;
  const auto serial = RunLinkRecoveryExperiment(config, recovery);
  for (const std::size_t threads : {3u, 16u}) {
    recovery.num_threads = threads;
    const auto sharded = RunLinkRecoveryExperiment(config, recovery);
    ExpectSameResults(serial, sharded);
  }
}

// Merged per-link registry snapshots at 1, 2, and 8 threads are
// byte-identical: per-link registries record only deterministic
// quantities (timings are off in the sim scope) and merge in link
// order. Exercised in both correlation modes so the chip-medium
// counters are covered too.
TEST(LinkRecoveryExperimentTest, MetricSnapshotsInvariantAcrossThreadCounts) {
  const auto config = SmallConfig();
  for (const auto correlation : {arq::CollisionCorrelation::kIndependent,
                                 arq::CollisionCorrelation::kSharedInterferer}) {
    auto recovery = SmallRecovery();
    recovery.arq.recovery = arq::RecoveryMode::kRelayCodedRepair;
    recovery.max_relays = 2;
    recovery.correlation = correlation;
    recovery.num_threads = 1;
    const auto serial = RunLinkRecoveryExperiment(config, recovery);
#if !defined(PPR_OBS_OFF)
    ASSERT_FALSE(serial.metrics.Empty());
#else
    ASSERT_TRUE(serial.metrics.Empty());
#endif
    for (const std::size_t threads : {2u, 8u}) {
      recovery.num_threads = threads;
      const auto sharded = RunLinkRecoveryExperiment(config, recovery);
      EXPECT_EQ(serial.metrics, sharded.metrics);
      EXPECT_EQ(serial.metrics.ToJson(), sharded.metrics.ToJson());
    }
  }
}

#if !defined(PPR_OBS_OFF)
// The registry snapshot is not a parallel bookkeeping system that can
// drift: its counters are incremented at the same sites that feed the
// legacy stats structs, so the two must agree exactly. Relay links and
// collided packets both run through RecoverySession.
TEST(LinkRecoveryExperimentTest, MetricSnapshotAgreesWithLegacyStats) {
  const auto config = SmallConfig();
  auto relay = SmallRecovery();
  relay.arq.recovery = arq::RecoveryMode::kRelayCodedRepair;
  relay.max_relays = 2;
  relay.correlation = arq::CollisionCorrelation::kSharedInterferer;
  auto collide = SmallRecovery();
  collide.arq.recovery = arq::RecoveryMode::kCollisionResolve;
  collide.arq.codewords_per_fec_symbol = 4;
  collide.collision_contention = 0.9;
  collide.collision_chip_error_p = 0.01;
  for (const auto& recovery : {relay, collide}) {
    const auto result = RunLinkRecoveryExperiment(config, recovery);
    if (recovery.arq.recovery == arq::RecoveryMode::kCollisionResolve) {
      EXPECT_GT(result.total_collision_episodes, 0u);
    }
    const auto& c = result.metrics.counters;
    const auto counter = [&](const std::string& key) {
      const auto it = c.find(key);
      return it == c.end() ? std::uint64_t{0} : it->second;
    };
    EXPECT_EQ(counter("arq.session.feedback_bits"),
              result.total_feedback_bits);
    EXPECT_EQ(counter("arq.session.repair_bits.source") +
                  counter("arq.session.repair_bits.relay"),
              result.total_repair_bits);
    EXPECT_EQ(counter("arq.session.repair_bits.source"),
              result.total_source_repair_bits);
    EXPECT_EQ(counter("arq.session.repair_bits.relay"),
              result.total_relay_repair_bits);
    EXPECT_EQ(counter("arq.session.completed") + counter("arq.session.failed"),
              result.packets);
    EXPECT_EQ(counter("arq.session.completed"), result.completed);
    EXPECT_EQ(counter("medium.ref_collisions"),
              result.total_direct_collision_frames);
    EXPECT_EQ(counter("medium.joint_collisions"),
              result.total_joint_collision_frames);
    EXPECT_EQ(counter("medium.ref_losses"), result.total_direct_loss_frames);
    EXPECT_EQ(counter("medium.joint_losses"), result.total_joint_loss_frames);
    std::size_t feedback_rounds = 0;
    for (const auto& link : result.links) {
      feedback_rounds += link.feedback_rounds;
    }
    EXPECT_EQ(counter("arq.session.rounds"), feedback_rounds);
    EXPECT_EQ(counter("collide.rank_gained"),
              result.total_collision_rank_gained);
    // Coded repair ran, so GF(256) work was attributed to the active
    // backend — and to no unavailable one.
    const std::string gf_key =
        "fec.gf256.bytes{impl=" +
        std::string(fec::GfImplName(fec::GfActiveImpl())) + "}";
    EXPECT_GT(counter(gf_key), 0u);
    for (const auto& [key, value] : c) {
      if (key.rfind("fec.gf256.", 0) == 0) {
        EXPECT_GT(value, 0u) << key;
      }
    }
  }
}
#endif  // !PPR_OBS_OFF

// All three strategies over the identical link set: one
// prebuilt-topology run per strategy, sharing one relay cache.
TEST(CompareLinkRecoveryStrategiesTest, ReportsAllThreeStrategies) {
  const auto config = SmallConfig();
  const TestbedTopology topology(config.testbed);
  const RadioMedium medium(topology.Positions(), config.medium);
  OverhearingRelayCache relay_cache(medium);
  const auto run = [&](arq::RecoveryMode mode) {
    auto recovery = SmallRecovery();
    recovery.arq.recovery = mode;
    return RunLinkRecoveryExperiment(config, recovery, topology, medium,
                                     relay_cache);
  };
  const auto chunk = run(arq::RecoveryMode::kChunkRetransmit);
  const auto coded = run(arq::RecoveryMode::kCodedRepair);
  const auto relay = run(arq::RecoveryMode::kRelayCodedRepair);
  ASSERT_FALSE(chunk.links.empty());
  ASSERT_EQ(chunk.links.size(), coded.links.size());
  ASSERT_EQ(chunk.links.size(), relay.links.size());
  for (std::size_t i = 0; i < chunk.links.size(); ++i) {
    EXPECT_EQ(chunk.links[i].sender, relay.links[i].sender);
    EXPECT_EQ(chunk.links[i].receiver, relay.links[i].receiver);
    // Two-party strategies never recruit relays.
    EXPECT_EQ(chunk.links[i].relay, kNoRelay);
    EXPECT_EQ(coded.links[i].relay, kNoRelay);
  }
  EXPECT_EQ(chunk.completed, chunk.packets);
  EXPECT_EQ(coded.completed, coded.packets);
  EXPECT_EQ(relay.completed, relay.packets);
  // Relay-coded repair never charges the source more than sender-only
  // coded repair across the testbed.
  EXPECT_LE(relay.total_source_repair_bits, coded.total_source_repair_bits);
}

}  // namespace
}  // namespace ppr::sim
