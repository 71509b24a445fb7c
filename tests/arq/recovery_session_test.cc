#include "arq/recovery_session.h"

#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "arq/link_sim.h"
#include "common/crc.h"
#include "common/rng.h"
#include "fec/gf256.h"
#include "sim/experiment.h"

namespace ppr::arq {
namespace {

BitVec RandomPayload(Rng& rng, std::size_t octets) {
  BitVec bits;
  for (std::size_t i = 0; i < octets * 8; ++i) {
    bits.PushBack(rng.Bernoulli(0.5));
  }
  return bits;
}

GilbertElliottParams DegradedParams() {
  GilbertElliottParams params;
  params.p_good_to_bad = 0.03;
  params.p_bad_to_good = 0.12;
  params.chip_error_good = 0.004;
  params.chip_error_bad = 0.25;
  return params;
}

GilbertElliottParams StrongParams() {
  GilbertElliottParams params;
  params.p_good_to_bad = 0.001;
  params.p_bad_to_good = 0.5;
  params.chip_error_good = 0.0005;
  params.chip_error_bad = 0.05;
  return params;
}

// A channel that delivers every codeword verbatim with a confident hint.
BodyChannel PerfectChannel() {
  return [](const BitVec& bits) {
    std::vector<phy::DecodedSymbol> out;
    out.reserve(bits.size() / 4);
    for (std::size_t i = 0; i < bits.size(); i += 4) {
      phy::DecodedSymbol s;
      s.symbol = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
      s.hint = 0.0;
      s.hamming_distance = 0;
      out.push_back(s);
    }
    return out;
  };
}

// A channel that delivers nothing useful: every codeword zeroed with an
// infinitely bad hint (out of range).
BodyChannel DeadChannel() {
  return [](const BitVec& bits) {
    std::vector<phy::DecodedSymbol> out(bits.size() / 4);
    for (auto& s : out) {
      s.symbol = 0;
      s.hint = std::numeric_limits<double>::infinity();
      s.hamming_distance = 32;
    }
    return out;
  };
}

TEST(RecoverySessionTest, FactoryKnowsRelayStrategy) {
  PpArqConfig config;
  config.recovery = RecoveryMode::kRelayCodedRepair;
  const auto strategy = MakeRecoveryStrategy(config);
  const auto relay = strategy->MakeRelayParticipant(1, 1, 512);
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->role(), PartyRole::kRelay);
  // One relay by default: no id 0 (the source's) and none past it.
  EXPECT_EQ(strategy->MakeRelayParticipant(0, 1, 512), nullptr);
  EXPECT_EQ(strategy->MakeRelayParticipant(2, 1, 512), nullptr);
}

TEST(RecoverySessionTest, OnlyRelayStrategyHasRelayRole) {
  for (const auto mode :
       {RecoveryMode::kChunkRetransmit, RecoveryMode::kCodedRepair}) {
    PpArqConfig config;
    config.recovery = mode;
    EXPECT_EQ(MakeRecoveryStrategy(config)->MakeRelayParticipant(1, 1, 512),
              nullptr);
  }
}

TEST(RecoverySessionTest, RequiresADestination) {
  PpArqConfig config;
  const auto strategy = MakeRecoveryStrategy(config);
  Rng rng(601);
  const BitVec body = PpArqSender::MakeBody(RandomPayload(rng, 40));
  RecoverySession session{SessionConfig{}};
  session.AddParty(strategy->MakeSourceParticipant(body, 1));
  EXPECT_THROW(session.Run(4), std::logic_error);
}

TEST(RecoverySessionTest, RejectsSecondDestination) {
  PpArqConfig config;
  const auto strategy = MakeRecoveryStrategy(config);
  RecoverySession session{SessionConfig{}};
  session.AddParty(strategy->MakeDestinationParticipant(1, 128));
  EXPECT_THROW(session.AddParty(strategy->MakeDestinationParticipant(1, 128)),
               std::invalid_argument);
}

// Scripted parties for the kEquations routing test: each logs what
// reaches it, in order, into one shared transcript.
class ScriptedDestination : public DestinationParticipant {
 public:
  explicit ScriptedDestination(std::vector<std::string>* log) : log_(log) {}
  void IngestInitial(const std::vector<phy::DecodedSymbol>&) override {
    log_->push_back("initial");
  }
  std::vector<SessionMessage> StartRound() override {
    if (repaired_) return {};
    log_->push_back("feedback");
    SessionMessage fb;
    fb.type = SessionMessageType::kFeedback;
    fb.feedback_wire = BitVec(16, true);
    return {fb};
  }
  std::vector<SessionMessage> HandleMessage(
      const DeliveredMessage& msg) override {
    if (msg.type == SessionMessageType::kEquations) {
      log_->push_back("equations x" + std::to_string(msg.equations.size()));
    } else if (msg.type == SessionMessageType::kRepair) {
      log_->push_back("repair");
      repaired_ = true;
    }
    return {};
  }
  bool Complete() const override { return repaired_; }
  BitVec AssembledPayload() const override { return {}; }

 private:
  std::vector<std::string>* log_;
  bool repaired_ = false;
};

// Answers each feedback with one 8-bit repair frame costing 40 bits.
class ScriptedSource : public RecoveryParticipant {
 public:
  PartyRole role() const override { return PartyRole::kSource; }
  void IngestInitial(const std::vector<phy::DecodedSymbol>&) override {}
  std::vector<SessionMessage> HandleMessage(
      const DeliveredMessage& msg) override {
    if (msg.type != SessionMessageType::kFeedback) return {};
    SessionMessage repair;
    repair.type = SessionMessageType::kRepair;
    repair.to = msg.from;
    repair.frames.push_back(RepairFrame{CodewordRange{0, 2}, 0, BitVec(8)});
    repair.wire_bits = 40;
    return {repair};
  }
};

// Hands the destination two rows when the first round opens, unless
// silenced.
class ScriptedListener : public RecoveryParticipant {
 public:
  ScriptedListener(std::vector<std::string>* log, bool silent)
      : log_(log), opened_(silent) {}
  PartyRole role() const override { return PartyRole::kListener; }
  void IngestInitial(const std::vector<phy::DecodedSymbol>&) override {}
  std::vector<SessionMessage> StartRound() override {
    if (opened_) return {};
    opened_ = true;
    log_->push_back("listener opens");
    SessionMessage msg;
    msg.type = SessionMessageType::kEquations;
    msg.to = kSessionDestinationId;
    msg.equations.resize(2);
    return {msg};
  }
  std::vector<SessionMessage> HandleMessage(
      const DeliveredMessage& msg) override {
    if (msg.type == SessionMessageType::kFeedback) {
      log_->push_back("listener hears feedback");
    }
    return {};
  }

 private:
  std::vector<std::string>* log_;
  bool opened_;
};

// A perfect channel that counts the codewords drawn through it.
BodyChannel CountingChannel(std::size_t* codewords) {
  return [codewords](const BitVec& bits) {
    *codewords += bits.size() / 4;
    return std::vector<phy::DecodedSymbol>(bits.size() / 4);
  };
}

// A listener's equations reach their addressee off the air: before the
// destination's first feedback, with no charge and no channel draw.
// The same session with a silent listener is the reference.
TEST(RecoverySessionTest, EquationsReachDestinationBeforeFeedbackOffTheAir) {
  const BitVec body(64, false);
  const auto run = [&](bool silent, std::vector<std::string>* log,
                       std::size_t* source_draws, std::size_t* listener_draws) {
    SessionConfig topology;
    topology.edges.push_back({kSessionSourceId, kSessionDestinationId,
                              CountingChannel(source_draws)});
    topology.edges.push_back({kSessionRelayId, kSessionDestinationId,
                              CountingChannel(listener_draws)});
    RecoverySession session(std::move(topology));
    session.AddParty(std::make_unique<ScriptedSource>());
    session.AddParty(std::make_unique<ScriptedDestination>(log));
    session.AddParty(std::make_unique<ScriptedListener>(log, silent));
    session.TransmitInitial(kSessionSourceId, body);
    return session.Run(4);
  };

  std::vector<std::string> log;
  std::size_t source_draws = 0, listener_draws = 0;
  const SessionRunStats with = run(false, &log, &source_draws, &listener_draws);
  EXPECT_EQ(log, (std::vector<std::string>{
                     "initial", "listener opens", "equations x2", "feedback",
                     "listener hears feedback", "repair"}));
  // The source -> destination edge carried the initial body and one
  // two-codeword frame; the listener's edge carried nothing.
  EXPECT_EQ(source_draws, 16u + 2u);
  EXPECT_EQ(listener_draws, 0u);
  EXPECT_TRUE(with.totals.success);
  EXPECT_EQ(with.rounds, 1u);
  EXPECT_EQ(with.totals.forward_bits, body.size() + 40);
  EXPECT_EQ(with.totals.data_transmissions, 2u);
  EXPECT_EQ(with.totals.retransmission_bits, std::vector<std::size_t>{40});
  ASSERT_EQ(with.parties.size(), 3u);
  EXPECT_EQ(with.parties[kSessionRelayId].repair_bits, 0u);
  EXPECT_EQ(with.parties[kSessionRelayId].repair_messages, 0u);
  EXPECT_EQ(with.parties[kSessionRelayId].feedback_bits, 0u);

  std::vector<std::string> silent_log;
  std::size_t silent_source_draws = 0, silent_listener_draws = 0;
  const SessionRunStats without = run(true, &silent_log, &silent_source_draws,
                                      &silent_listener_draws);
  EXPECT_EQ(silent_source_draws, source_draws);
  EXPECT_EQ(silent_listener_draws, 0u);
  EXPECT_EQ(with.totals.forward_bits, without.totals.forward_bits);
  EXPECT_EQ(with.totals.data_transmissions, without.totals.data_transmissions);
  EXPECT_EQ(with.totals.retransmission_bits,
            without.totals.retransmission_bits);
  EXPECT_EQ(with.totals.feedback_bits, without.totals.feedback_bits);
  EXPECT_EQ(with.rounds, without.rounds);
  for (PartyId id = 0; id < 3; ++id) {
    EXPECT_EQ(with.parties[id].repair_bits, without.parties[id].repair_bits);
    EXPECT_EQ(with.parties[id].repair_messages,
              without.parties[id].repair_messages);
    EXPECT_EQ(with.parties[id].feedback_bits,
              without.parties[id].feedback_bits);
  }
}

// kEquations has no broadcast form: rows are for one decoder.
TEST(RecoverySessionTest, EquationsNeedAnAddressee) {
  class BroadcastingListener : public RecoveryParticipant {
   public:
    PartyRole role() const override { return PartyRole::kListener; }
    void IngestInitial(const std::vector<phy::DecodedSymbol>&) override {}
    std::vector<SessionMessage> StartRound() override {
      SessionMessage msg;
      msg.type = SessionMessageType::kEquations;
      return {msg};
    }
    std::vector<SessionMessage> HandleMessage(
        const DeliveredMessage&) override {
      return {};
    }
  };
  std::vector<std::string> log;
  RecoverySession session{SessionConfig{}};
  session.AddParty(std::make_unique<ScriptedSource>());
  session.AddParty(std::make_unique<ScriptedDestination>(&log));
  session.AddParty(std::make_unique<BroadcastingListener>());
  EXPECT_THROW(session.Run(1), std::logic_error);
}

// An independent re-implementation of the pre-session duplex loop
// (source and destination participants driven directly, one channel,
// frames crossed in reply order), kept here so the session engine is
// compared against the legacy behavior rather than against itself.
ArqRunStats LegacyDuplexLoop(const BitVec& payload,
                             const PpArqConfig& config,
                             const RecoveryStrategy& strategy,
                             const BodyChannel& channel,
                             std::size_t max_rounds = 32) {
  ArqRunStats stats;
  const BitVec body = PpArqSender::MakeBody(payload);
  auto source = strategy.MakeSourceParticipant(body, 1);
  auto destination = strategy.MakeDestinationParticipant(
      1, body.size() / config.bits_per_codeword);
  stats.forward_bits += body.size();
  ++stats.data_transmissions;
  destination->IngestInitial(channel(body));
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const auto opening = destination->StartRound();
    if (opening.empty()) {
      stats.success = true;
      return stats;
    }
    DeliveredMessage feedback;
    feedback.type = SessionMessageType::kFeedback;
    feedback.feedback_wire = opening.front().feedback_wire;
    stats.feedback_bits += feedback.feedback_wire.size();
    for (const SessionMessage& plan : source->HandleMessage(feedback)) {
      stats.forward_bits += plan.wire_bits;
      stats.retransmission_bits.push_back(plan.wire_bits);
      ++stats.data_transmissions;
      DeliveredMessage repair;
      repair.type = SessionMessageType::kRepair;
      for (const auto& frame : plan.frames) {
        ReceivedRepairFrame rf;
        rf.range = frame.range;
        rf.aux = frame.aux;
        rf.origin = frame.origin;
        rf.coef_mask = frame.coef_mask;
        rf.suspicion = frame.suspicion;
        rf.symbols = channel(frame.bits);
        repair.frames.push_back(std::move(rf));
      }
      destination->HandleMessage(repair);
    }
  }
  stats.success = destination->Complete();
  return stats;
}

// The tentpole compatibility property: driving a strategy through
// RecoverySession with one source, one destination and one edge gives
// exactly the stats of the legacy duplex loop above — same channel draw
// order, same accounting — for every strategy.
TEST(RecoverySessionTest, TwoPartySessionMatchesDuplexExchange) {
  Rng prng(611);
  const BitVec payload = RandomPayload(prng, 180);
  const phy::ChipCodebook cb;
  for (const auto mode :
       {RecoveryMode::kChunkRetransmit, RecoveryMode::kCodedRepair}) {
    PpArqConfig config;
    config.recovery = mode;
    const auto strategy = MakeRecoveryStrategy(config);

    Rng rng_a(612);
    auto channel_a = MakeGilbertElliottChannel(cb, DegradedParams(), rng_a);
    const auto duplex =
        LegacyDuplexLoop(payload, config, *strategy, channel_a);

    Rng rng_b(612);
    auto channel_b = MakeGilbertElliottChannel(cb, DegradedParams(), rng_b);
    const auto session = RunRecoveryExchangeSession(payload, config, *strategy,
                                                    channel_b);

    EXPECT_TRUE(duplex.success);
    EXPECT_EQ(duplex.success, session.totals.success);
    EXPECT_EQ(duplex.data_transmissions, session.totals.data_transmissions);
    EXPECT_EQ(duplex.forward_bits, session.totals.forward_bits);
    EXPECT_EQ(duplex.feedback_bits, session.totals.feedback_bits);
    EXPECT_EQ(duplex.retransmission_bits, session.totals.retransmission_bits);
    // Per-party accounting adds up to the totals.
    ASSERT_EQ(session.parties.size(), 2u);
    EXPECT_EQ(session.parties[kSessionSourceId].repair_bits +
                  PpArqSender::MakeBody(payload).size(),
              session.totals.forward_bits);
    EXPECT_EQ(session.parties[kSessionDestinationId].feedback_bits,
              session.totals.feedback_bits);
  }
}

// One relay's channels, in the N-relay runner's layout.
MultiRelayExchangeChannels MakeGeChannels(
    const phy::ChipCodebook& cb, const GilbertElliottParams& direct,
    const GilbertElliottParams& overhear,
    const GilbertElliottParams& relay_link, Rng& direct_rng,
    Rng& overhear_rng, Rng& relay_rng) {
  MultiRelayExchangeChannels channels;
  channels.source_to_destination =
      MakeGilbertElliottChannel(cb, direct, direct_rng);
  channels.source_to_relay = {
      MakeGilbertElliottChannel(cb, overhear, overhear_rng)};
  channels.relay_to_destination = {
      MakeGilbertElliottChannel(cb, relay_link, relay_rng)};
  return channels;
}

// The topology RunMultiRelayRecoveryExchange builds from `channels`,
// for tests that keep the session itself to read the assembled
// payload.
SessionConfig RelayTopology(const MultiRelayExchangeChannels& channels) {
  SessionConfig topology;
  topology.edges.push_back({kSessionSourceId, kSessionDestinationId,
                            channels.source_to_destination});
  for (std::size_t i = 0; i < channels.relay_to_destination.size(); ++i) {
    topology.edges.push_back(
        {kSessionSourceId, kSessionRelayId + i, channels.source_to_relay[i]});
    topology.edges.push_back({kSessionRelayId + i, kSessionDestinationId,
                              channels.relay_to_destination[i]});
  }
  return topology;
}

// The PR's acceptance scenario: a degraded direct path and a strong
// relay. Relay-coded recovery must complete every packet and put
// strictly fewer source-transmitted repair bits on the air than
// sender-only coded repair over the identical direct channel.
TEST(RecoverySessionTest, RelaySpendsFewerSourceRepairBitsThanCoded) {
  const phy::ChipCodebook cb;
  std::size_t relay_source_bits = 0;
  std::size_t coded_source_bits = 0;
  std::size_t relay_contributions = 0;
  for (const std::uint64_t seed : {621ull, 622ull, 623ull, 624ull}) {
    Rng prng(seed);
    const BitVec payload = RandomPayload(prng, 200);

    PpArqConfig relay_config;
    relay_config.recovery = RecoveryMode::kRelayCodedRepair;
    Rng direct_a(seed ^ 0xD1);
    Rng overhear(seed ^ 0x0E);
    Rng relay_link(seed ^ 0x51);
    const auto channels =
        MakeGeChannels(cb, DegradedParams(), StrongParams(), StrongParams(),
                       direct_a, overhear, relay_link);
    const auto relay = RunMultiRelayRecoveryExchange(
        payload, relay_config, *MakeRecoveryStrategy(relay_config), channels);

    PpArqConfig coded_config;
    coded_config.recovery = RecoveryMode::kCodedRepair;
    Rng direct_b(seed ^ 0xD1);  // identical direct-channel trace
    auto coded_channel = MakeGilbertElliottChannel(cb, DegradedParams(), direct_b);
    const auto coded = RunRecoveryExchangeSession(
        payload, coded_config, *MakeRecoveryStrategy(coded_config),
        coded_channel);

    ASSERT_TRUE(relay.totals.success) << "seed=" << seed;
    ASSERT_TRUE(coded.totals.success) << "seed=" << seed;
    ASSERT_EQ(relay.parties.size(), 3u);
    relay_source_bits += relay.parties[kSessionSourceId].repair_bits;
    relay_contributions += relay.parties[kSessionRelayId].repair_bits;
    coded_source_bits += coded.parties[kSessionSourceId].repair_bits;
    // The degraded channel actually forced repair rounds.
    EXPECT_FALSE(coded.totals.retransmission_bits.empty()) << "seed=" << seed;
  }
  EXPECT_GT(relay_contributions, 0u);
  EXPECT_LT(relay_source_bits, coded_source_bits);
}

TEST(RecoverySessionTest, RelaySessionDeliversExactPayload) {
  const phy::ChipCodebook cb;
  Rng prng(631);
  const BitVec payload = RandomPayload(prng, 150);
  PpArqConfig config;
  config.recovery = RecoveryMode::kRelayCodedRepair;
  Rng direct(632), overhear(633), relay_link(634);
  const auto channels =
      MakeGeChannels(cb, DegradedParams(), StrongParams(), StrongParams(),
                     direct, overhear, relay_link);

  const BitVec body = PpArqSender::MakeBody(payload);
  const auto strategy = MakeRecoveryStrategy(config);
  RecoverySession session(RelayTopology(channels));
  session.AddParty(strategy->MakeSourceParticipant(body, 1));
  const PartyId dest_id = session.AddParty(
      strategy->MakeDestinationParticipant(1, body.size() / 4));
  session.AddParty(strategy->MakeRelayParticipant(1, 1, body.size() / 4));
  session.TransmitInitial(0, body);
  const auto stats = session.Run(32);
  ASSERT_TRUE(stats.totals.success);
  EXPECT_EQ(static_cast<DestinationParticipant&>(session.party(dest_id))
                .AssembledPayload(),
            payload);
}

// A relay that overhears nothing must not wedge the exchange: the
// destination's delivery estimate for the silent relay decays to the
// floor and the source carries the packet alone.
TEST(RecoverySessionTest, SilentRelayFallsBackToSourceOnly) {
  const phy::ChipCodebook cb;
  Rng prng(641);
  const BitVec payload = RandomPayload(prng, 120);
  PpArqConfig config;
  config.recovery = RecoveryMode::kRelayCodedRepair;
  MultiRelayExchangeChannels channels;
  Rng direct(642);
  channels.source_to_destination =
      MakeGilbertElliottChannel(cb, DegradedParams(), direct);
  channels.source_to_relay = {DeadChannel()};  // the relay hears only noise
  channels.relay_to_destination = {PerfectChannel()};
  const auto stats = RunMultiRelayRecoveryExchange(
      payload, config, *MakeRecoveryStrategy(config), channels);
  EXPECT_TRUE(stats.totals.success);
  EXPECT_EQ(stats.parties[kSessionRelayId].repair_bits, 0u);
  EXPECT_GT(stats.parties[kSessionSourceId].repair_bits, 0u);
}

// Satellite: relay-side SoftPHY misses. The relay's overheard copy
// contains wrong-but-confident codewords, so every equation it streams
// is consistent with a wrong body. The per-symbol wire CRC cannot catch
// this (the equations are "valid"), so the destination's
// decode-verify-evict loop must distrust the relay's equations and
// finish correctly from its own symbols plus the source's stream.
TEST(RecoverySessionTest, RelayMissDoesNotPoisonDestination) {
  const phy::ChipCodebook cb;
  Rng prng(651);
  const BitVec payload = RandomPayload(prng, 120);
  PpArqConfig config;
  config.recovery = RecoveryMode::kRelayCodedRepair;

  MultiRelayExchangeChannels channels;
  Rng direct(652);
  channels.source_to_destination =
      MakeGilbertElliottChannel(cb, DegradedParams(), direct);
  // The relay's copy: confidently wrong in a stretch of codewords — a
  // modeled SoftPHY miss (hint 0 despite flipped bits).
  channels.source_to_relay = {[perfect =
                                   PerfectChannel()](const BitVec& bits) {
    auto symbols = perfect(bits);
    for (std::size_t i = 40; i < 80 && i < symbols.size(); ++i) {
      symbols[i].symbol = static_cast<std::uint8_t>(symbols[i].symbol ^ 0x5);
      symbols[i].hint = 0.0;
    }
    return symbols;
  }};
  channels.relay_to_destination = {PerfectChannel()};

  const BitVec body = PpArqSender::MakeBody(payload);
  const auto strategy = MakeRecoveryStrategy(config);
  RecoverySession session(RelayTopology(channels));
  session.AddParty(strategy->MakeSourceParticipant(body, 1));
  const PartyId dest_id = session.AddParty(
      strategy->MakeDestinationParticipant(1, body.size() / 4));
  session.AddParty(strategy->MakeRelayParticipant(1, 1, body.size() / 4));
  session.TransmitInitial(0, body);
  const auto stats = session.Run(32);
  ASSERT_TRUE(stats.totals.success);
  EXPECT_EQ(static_cast<DestinationParticipant&>(session.party(dest_id))
                .AssembledPayload(),
            payload);
}

// --------------------------------------------------------------- N-relay

// The N=1 anchor of the generalized stack: the refactored wire/session
// must reproduce the pre-generalization kRelayCodedRepair exchange
// bit-for-bit on the repair path. These constants were captured from
// the fixed-two-count implementation (PR 2/3 era) on the identical
// channel construction; only the feedback wire is allowed to differ
// (it now carries an explicit party count, 56 bits per round instead
// of 48).
TEST(MultiRelaySessionTest, SingleRelayReproducesLegacyCrelayRepairPath) {
  struct Pinned {
    std::uint64_t seed;
    std::size_t rounds, data_transmissions, forward_bits;
    std::size_t source_repair_bits, relay_repair_bits;
  };
  const Pinned pinned[] = {
      {901, 1, 3, 2509, 640, 557},
      {902, 2, 4, 4813, 2656, 845},
      {903, 1, 3, 2797, 832, 653},
  };
  const phy::ChipCodebook cb;
  for (const auto& pin : pinned) {
    Rng prng(pin.seed);
    const BitVec payload = RandomPayload(prng, 160);
    PpArqConfig config;
    config.recovery = RecoveryMode::kRelayCodedRepair;
    Rng direct(pin.seed ^ 0xA), overhear(pin.seed ^ 0xB),
        relay_hop(pin.seed ^ 0xC);
    const auto channels =
        MakeGeChannels(cb, DegradedParams(), StrongParams(), StrongParams(),
                       direct, overhear, relay_hop);
    const auto stats = RunMultiRelayRecoveryExchange(
        payload, config, *MakeRecoveryStrategy(config), channels);
    ASSERT_TRUE(stats.totals.success) << "seed=" << pin.seed;
    EXPECT_EQ(stats.rounds, pin.rounds) << "seed=" << pin.seed;
    EXPECT_EQ(stats.totals.data_transmissions, pin.data_transmissions)
        << "seed=" << pin.seed;
    EXPECT_EQ(stats.totals.forward_bits, pin.forward_bits)
        << "seed=" << pin.seed;
    EXPECT_EQ(stats.parties[kSessionSourceId].repair_bits,
              pin.source_repair_bits)
        << "seed=" << pin.seed;
    EXPECT_EQ(stats.parties[kSessionRelayId].repair_bits,
              pin.relay_repair_bits)
        << "seed=" << pin.seed;
    EXPECT_EQ(stats.totals.feedback_bits, stats.rounds * 56u)
        << "seed=" << pin.seed;
  }
}

MultiRelayExchangeChannels MakeDenseChannels(const BodyChannel& direct,
                                             std::size_t num_relays) {
  MultiRelayExchangeChannels channels;
  channels.source_to_destination = direct;
  for (std::size_t i = 0; i < num_relays; ++i) {
    channels.source_to_relay.push_back(PerfectChannel());
    channels.relay_to_destination.push_back(PerfectChannel());
  }
  return channels;
}

TEST(MultiRelaySessionTest, TwoRelaySessionDeliversExactPayload) {
  const phy::ChipCodebook cb;
  Rng prng(661);
  const BitVec payload = RandomPayload(prng, 150);
  PpArqConfig config;
  config.recovery = RecoveryMode::kRelayCodedRepair;
  config.relay_parties = 2;
  MultiRelayExchangeChannels channels;
  // Channels hold a pointer to their Rng, so every stream outlives the
  // session.
  Rng direct(662), overhear_a(663), hop_a(663 ^ 0xFF), overhear_b(664),
      hop_b(664 ^ 0xFF);
  channels.source_to_destination =
      MakeGilbertElliottChannel(cb, DegradedParams(), direct);
  channels.source_to_relay = {
      MakeGilbertElliottChannel(cb, StrongParams(), overhear_a),
      MakeGilbertElliottChannel(cb, StrongParams(), overhear_b)};
  channels.relay_to_destination = {
      MakeGilbertElliottChannel(cb, StrongParams(), hop_a),
      MakeGilbertElliottChannel(cb, StrongParams(), hop_b)};
  const BitVec body = PpArqSender::MakeBody(payload);
  const auto strategy = MakeRecoveryStrategy(config);
  RecoverySession session(RelayTopology(channels));
  session.AddParty(strategy->MakeSourceParticipant(body, 1));
  const PartyId dest_id = session.AddParty(
      strategy->MakeDestinationParticipant(1, body.size() / 4));
  for (std::uint8_t r = 1; r <= 2; ++r) {
    session.AddParty(strategy->MakeRelayParticipant(r, 1, body.size() / 4));
  }
  session.TransmitInitial(0, body);
  const auto stats = session.Run(32);
  ASSERT_TRUE(stats.totals.success);
  EXPECT_EQ(static_cast<DestinationParticipant&>(session.party(dest_id))
                .AssembledPayload(),
            payload);
  EXPECT_GT(stats.parties[kSessionRelayId].repair_bits +
                stats.parties[kSessionRelayId + 1].repair_bits,
            0u);
}

// The acceptance scenario for airtime scheduling: a dense (4
// overhearer) set behind a dead direct link. Unbudgeted, every relay
// streams each round; with a budget, per-round relay bits are capped
// and the worst-ranked relays defer — yet the session still completes
// (the relays' equations carry the packet).
TEST(MultiRelaySessionTest, AirtimeBudgetCapsPerRoundRelayBits) {
  constexpr std::size_t kBudgetBits = 2000;
  const auto run = [](std::size_t budget_bits) {
    Rng prng(671);
    const BitVec payload = RandomPayload(prng, 160);
    PpArqConfig config;
    config.recovery = RecoveryMode::kRelayCodedRepair;
    config.relay_parties = 4;
    config.relay_airtime_budget_bits = budget_bits;
    const auto channels = MakeDenseChannels(DeadChannel(), 4);
    return RunMultiRelayRecoveryExchange(
        payload, config, *MakeRecoveryStrategy(config), channels);
  };
  const auto unbudgeted = run(0);
  const auto budgeted = run(kBudgetBits);
  ASSERT_TRUE(unbudgeted.totals.success);
  ASSERT_TRUE(budgeted.totals.success);
  // The dense set genuinely contends: left alone it exceeds the budget
  // in at least one round; scheduled, it never does.
  EXPECT_GT(unbudgeted.max_round_relay_bits, kBudgetBits);
  EXPECT_LE(budgeted.max_round_relay_bits, kBudgetBits);
  EXPECT_GT(budgeted.max_round_relay_bits, 0u);
  EXPECT_EQ(unbudgeted.relay_deferrals, 0u);
  EXPECT_GT(budgeted.relay_deferrals, 0u);
}

// Satellite: a golden two-relay session transcript, pinned as a CRC
// constant and replayed under every available GF(256) backend. Catches
// both cross-backend divergence and cross-version drift (wire layout,
// allocator, seed partitioning, scheduling order) in one number.
TEST(MultiRelaySessionTest, GoldenTwoRelayTranscriptIsBackendInvariant) {
  constexpr std::uint32_t kGoldenTranscriptCrc = 0x074B461A;
  const auto run = [] {
    const phy::ChipCodebook cb;
    Rng prng(691);
    const BitVec payload = RandomPayload(prng, 180);
    PpArqConfig config;
    config.recovery = RecoveryMode::kRelayCodedRepair;
    config.relay_parties = 2;
    MultiRelayExchangeChannels channels;
    Rng direct(692), overhear_a(693), hop_a(694), overhear_b(695), hop_b(696);
    channels.source_to_destination =
        MakeGilbertElliottChannel(cb, DegradedParams(), direct);
    channels.source_to_relay = {
        MakeGilbertElliottChannel(cb, StrongParams(), overhear_a),
        MakeGilbertElliottChannel(cb, StrongParams(), overhear_b)};
    channels.relay_to_destination = {
        MakeGilbertElliottChannel(cb, StrongParams(), hop_a),
        MakeGilbertElliottChannel(cb, StrongParams(), hop_b)};
    const auto stats = RunMultiRelayRecoveryExchange(
        payload, config, *MakeRecoveryStrategy(config), channels);
    EXPECT_TRUE(stats.totals.success);
    // Serialize the observable transcript: totals, the per-party
    // breakdown, and the repair-message sizes in transmission order.
    BitVec transcript;
    transcript.AppendUint(stats.rounds, 16);
    transcript.AppendUint(stats.totals.data_transmissions, 16);
    transcript.AppendUint(stats.totals.forward_bits, 32);
    transcript.AppendUint(stats.totals.feedback_bits, 32);
    for (const auto& party : stats.parties) {
      transcript.AppendUint(party.repair_bits, 32);
      transcript.AppendUint(party.repair_messages, 16);
      transcript.AppendUint(party.feedback_bits, 32);
    }
    for (const auto bits : stats.totals.retransmission_bits) {
      transcript.AppendUint(bits, 32);
    }
    return Crc32Bits(transcript);
  };
  const std::uint32_t reference = [&] {
    fec::GfImplScope scope(fec::GfImpl::kScalar);
    return run();
  }();
  EXPECT_EQ(reference, kGoldenTranscriptCrc);
  for (const fec::GfImpl impl : fec::GfAvailableImpls()) {
    fec::GfImplScope scope(impl);
    ASSERT_TRUE(scope.ok());
    EXPECT_EQ(run(), kGoldenTranscriptCrc) << fec::GfImplName(impl);
  }
}

// ExOR ordering: under a tight budget the relay with the better
// overheard copy is served first; the poor-copy relay's turn comes
// when nothing affordable remains, so it stays off the air entirely.
// The broadcast rewiring pin: delivering the initial transmission
// through one BroadcastBodyChannel that wraps the same per-edge
// channels must reproduce the per-edge session exactly — same draws,
// same accounting — so MultiRelayExchangeChannels::initial_broadcast
// only changes WHERE the receptions come from, never the protocol.
TEST(MultiRelaySessionTest, InitialBroadcastMatchesPerEdgeDelivery) {
  const phy::ChipCodebook cb;
  PpArqConfig config;
  config.recovery = RecoveryMode::kRelayCodedRepair;
  config.relay_parties = 2;
  const auto strategy = MakeRecoveryStrategy(config);

  const auto run = [&](bool broadcast) {
    Rng prng(671);
    const BitVec payload = RandomPayload(prng, 150);
    // Channels hold a pointer to their Rng, so every stream outlives
    // the session.
    Rng direct(672), overhear_a(673), hop_a(673 ^ 0xFF), overhear_b(674),
        hop_b(674 ^ 0xFF);
    MultiRelayExchangeChannels channels;
    channels.source_to_destination =
        MakeGilbertElliottChannel(cb, DegradedParams(), direct);
    const auto to_relay_a =
        MakeGilbertElliottChannel(cb, StrongParams(), overhear_a);
    const auto to_relay_b =
        MakeGilbertElliottChannel(cb, StrongParams(), overhear_b);
    channels.relay_to_destination = {
        MakeGilbertElliottChannel(cb, StrongParams(), hop_a),
        MakeGilbertElliottChannel(cb, StrongParams(), hop_b)};
    if (broadcast) {
      const auto to_destination = channels.source_to_destination;
      channels.initial_broadcast =
          [to_destination, to_relay_a, to_relay_b](const BitVec& bits) {
            std::vector<std::vector<phy::DecodedSymbol>> out;
            out.push_back(to_destination(bits));
            out.push_back(to_relay_a(bits));
            out.push_back(to_relay_b(bits));
            return out;
          };
    } else {
      channels.source_to_relay = {to_relay_a, to_relay_b};
    }
    return RunMultiRelayRecoveryExchange(payload, config, *strategy,
                                         channels);
  };

  const auto edges = run(false);
  const auto broadcast = run(true);
  EXPECT_EQ(edges.totals.success, broadcast.totals.success);
  EXPECT_EQ(edges.totals.forward_bits, broadcast.totals.forward_bits);
  EXPECT_EQ(edges.totals.feedback_bits, broadcast.totals.feedback_bits);
  EXPECT_EQ(edges.totals.retransmission_bits,
            broadcast.totals.retransmission_bits);
  EXPECT_EQ(edges.rounds, broadcast.rounds);
  ASSERT_EQ(edges.parties.size(), broadcast.parties.size());
  for (std::size_t i = 0; i < edges.parties.size(); ++i) {
    EXPECT_EQ(edges.parties[i].repair_bits, broadcast.parties[i].repair_bits);
    EXPECT_EQ(edges.parties[i].repair_messages,
              broadcast.parties[i].repair_messages);
    EXPECT_EQ(edges.parties[i].feedback_bits,
              broadcast.parties[i].feedback_bits);
  }
}

TEST(MultiRelaySessionTest, BudgetServesBetterRankedRelayFirst) {
  Rng prng(681);
  const BitVec payload = RandomPayload(prng, 160);
  PpArqConfig config;
  config.recovery = RecoveryMode::kRelayCodedRepair;
  config.relay_parties = 2;
  config.relay_airtime_budget_bits = 800;
  MultiRelayExchangeChannels channels;
  channels.source_to_destination = DeadChannel();
  // Relay 1 (lower party id): half its copy is honestly erased — a
  // poor overhearer. Relay 2: perfect copy, the better rank.
  channels.source_to_relay.push_back([](const BitVec& bits) {
    auto symbols = PerfectChannel()(bits);
    for (std::size_t i = 0; i < symbols.size() / 2; ++i) {
      symbols[i].hint = std::numeric_limits<double>::infinity();
    }
    return symbols;
  });
  channels.source_to_relay.push_back(PerfectChannel());
  channels.relay_to_destination.push_back(PerfectChannel());
  channels.relay_to_destination.push_back(PerfectChannel());
  const auto stats = RunMultiRelayRecoveryExchange(
      payload, config, *MakeRecoveryStrategy(config), channels);
  ASSERT_TRUE(stats.totals.success);
  EXPECT_GT(stats.parties[kSessionRelayId + 1].repair_bits, 0u);
  EXPECT_EQ(stats.parties[kSessionRelayId].repair_bits, 0u);
  EXPECT_GT(stats.relay_deferrals, 0u);
}

void AppendWord(std::vector<std::uint8_t>& bytes, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

// Every SessionRunStats field, in declaration order.
void AppendStats(std::vector<std::uint8_t>& bytes, const SessionRunStats& s) {
  AppendWord(bytes, s.totals.success);
  AppendWord(bytes, s.totals.data_transmissions);
  AppendWord(bytes, s.totals.forward_bits);
  AppendWord(bytes, s.totals.feedback_bits);
  AppendWord(bytes, s.totals.retransmission_bits.size());
  for (const auto bits : s.totals.retransmission_bits) AppendWord(bytes, bits);
  AppendWord(bytes, s.parties.size());
  for (const auto& party : s.parties) {
    AppendWord(bytes, party.repair_bits);
    AppendWord(bytes, party.repair_messages);
    AppendWord(bytes, party.feedback_bits);
  }
  AppendWord(bytes, s.rounds);
  AppendWord(bytes, s.max_round_relay_bits);
  AppendWord(bytes, s.relay_deferrals);
}

// Bursty channels for one pinned exchange: a direct path whose burst
// rate varies with `seed`, then per relay an overhear hop (sometimes as
// bad as the direct path) and a strong relay hop. Channels point into
// `rngs`, which must outlive them.
MultiRelayExchangeChannels PinChannels(const phy::ChipCodebook& cb,
                                       std::uint64_t seed, std::size_t relays,
                                       std::deque<Rng>& rngs) {
  GilbertElliottParams direct = DegradedParams();
  direct.p_good_to_bad = 0.02 * static_cast<double>(1 + seed % 5);
  MultiRelayExchangeChannels channels;
  rngs.emplace_back(seed * 7919 + 1);
  channels.source_to_destination =
      MakeGilbertElliottChannel(cb, direct, rngs.back());
  for (std::size_t i = 0; i < relays; ++i) {
    rngs.emplace_back(seed * 7919 + 2 + 2 * i);
    channels.source_to_relay.push_back(MakeGilbertElliottChannel(
        cb, (seed + i) % 3 == 0 ? DegradedParams() : StrongParams(),
        rngs.back()));
    rngs.emplace_back(seed * 7919 + 3 + 2 * i);
    channels.relay_to_destination.push_back(
        MakeGilbertElliottChannel(cb, StrongParams(), rngs.back()));
  }
  return channels;
}

// Every LinkRecoveryStats field, in declaration order.
void AppendLinkStats(std::vector<std::uint8_t>& bytes,
                     const sim::LinkRecoveryStats& link) {
  for (const std::uint64_t v :
       {std::uint64_t{link.sender}, std::uint64_t{link.receiver},
        std::bit_cast<std::uint64_t>(link.snr_db), std::uint64_t{link.packets},
        std::uint64_t{link.completed}, std::uint64_t{link.repair_bits},
        std::uint64_t{link.feedback_bits}, std::uint64_t{link.feedback_rounds},
        std::uint64_t{link.relay}, std::uint64_t{link.relays.size()}}) {
    AppendWord(bytes, v);
  }
  for (const auto relay : link.relays) AppendWord(bytes, relay);
  for (const std::size_t v :
       {link.source_repair_bits, link.relay_repair_bits,
        link.max_round_relay_bits, link.relay_deferrals,
        link.direct_collision_frames, link.joint_collision_frames,
        link.direct_loss_frames, link.joint_loss_frames,
        link.collision_episodes, link.collision_codewords_stripped,
        link.collision_equations_banked, link.collision_pairs_resolved,
        link.collision_abandoned, link.collision_rank_gained,
        link.collided_recovered_frames}) {
    AppendWord(bytes, v);
  }
}

// Every field of the chunk, coded and relay exchanges (1-3 relays,
// with and without an airtime budget) on a seed grid, with the payload
// each destination assembled, and every LinkRecoveryStats field of a
// relay-mode testbed leg in which some links recruit no relay. Each
// exchange runs twice from identically seeded channels: through the
// public runner, and as a session this test keeps so it can read the
// destination; the two must agree. A change meant to keep behaviour
// leaves the CRC alone.
TEST(RecoverySessionTest, ExchangeOutcomesArePinned) {
  const phy::ChipCodebook cb;
  std::vector<std::uint8_t> bytes;
  std::size_t failed = 0, succeeded = 0, relay_bits = 0, deferrals = 0;
  const auto pin = [&](const PpArqConfig& config, std::uint64_t seed,
                       std::size_t relays) {
    // One to three rounds, so some exchanges end unfinished.
    const std::size_t max_rounds = 1 + seed % 3;
    Rng prng(seed);
    const BitVec payload = RandomPayload(prng, 60);
    const auto strategy = MakeRecoveryStrategy(config);
    std::deque<Rng> runner_rngs;
    const auto runner_channels = PinChannels(cb, seed, relays, runner_rngs);
    const SessionRunStats runner =
        relays == 0
            ? RunRecoveryExchangeSession(payload, config, *strategy,
                                         runner_channels.source_to_destination,
                                         max_rounds)
            : RunMultiRelayRecoveryExchange(payload, config, *strategy,
                                            runner_channels, max_rounds);

    std::deque<Rng> session_rngs;
    const auto channels = PinChannels(cb, seed, relays, session_rngs);
    SessionConfig topology = RelayTopology(channels);
    topology.relay_airtime_budget_bits = config.relay_airtime_budget_bits;
    const BitVec body = PpArqSender::MakeBody(payload);
    RecoverySession session(std::move(topology));
    session.AddParty(strategy->MakeSourceParticipant(body, 1));
    session.AddParty(strategy->MakeDestinationParticipant(1, body.size() / 4));
    for (std::size_t i = 0; i < relays; ++i) {
      session.AddParty(strategy->MakeRelayParticipant(
          static_cast<std::uint8_t>(i + 1), 1, body.size() / 4));
    }
    session.TransmitInitial(kSessionSourceId, body);
    const SessionRunStats kept = session.Run(max_rounds);

    std::vector<std::uint8_t> runner_bytes, kept_bytes;
    AppendStats(runner_bytes, runner);
    AppendStats(kept_bytes, kept);
    EXPECT_EQ(runner_bytes, kept_bytes) << "seed " << seed;
    bytes.insert(bytes.end(), runner_bytes.begin(), runner_bytes.end());
    const auto assembled =
        static_cast<DestinationParticipant&>(
            session.party(kSessionDestinationId))
            .AssembledPayload()
            .ToBytes();
    bytes.insert(bytes.end(), assembled.begin(), assembled.end());
    (runner.totals.success ? succeeded : failed) += 1;
    for (std::size_t i = 0; i < relays; ++i) {
      relay_bits += runner.parties[kSessionRelayId + i].repair_bits;
    }
    deferrals += runner.relay_deferrals;
  };
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const auto mode :
         {RecoveryMode::kChunkRetransmit, RecoveryMode::kCodedRepair}) {
      PpArqConfig config;
      config.recovery = mode;
      pin(config, seed, 0);
    }
    for (std::size_t relays = 1; relays <= 3; ++relays) {
      for (const std::size_t budget : {0, 1500}) {
        PpArqConfig config;
        config.recovery = RecoveryMode::kRelayCodedRepair;
        config.relay_parties = relays;
        config.relay_airtime_budget_bits = budget;
        pin(config, seed, relays);
      }
    }
  }

  // Relay-mode legs over the testbed's links, independent and shared
  // collisions: a recruiting threshold this high leaves some links
  // without an overhearer, and those run two-party.
  const auto links = sim::MakePaperConfig(3500.0, true, 1.0);
  sim::RecoveryExperimentConfig recovery;
  recovery.arq.recovery = RecoveryMode::kRelayCodedRepair;
  recovery.payload_octets = 60;
  recovery.packets_per_link = 3;
  recovery.seed = 88;
  recovery.num_threads = 2;
  recovery.max_relays = 2;
  recovery.relay_min_snr_db = 10.0;
  std::size_t no_relay = 0, with_relay = 0;
  for (const auto correlation : {CollisionCorrelation::kIndependent,
                                 CollisionCorrelation::kSharedInterferer}) {
    recovery.correlation = correlation;
    for (const auto& link :
         sim::RunLinkRecoveryExperiment(links, recovery).links) {
      AppendLinkStats(bytes, link);
      (link.relays.empty() ? no_relay : with_relay) += 1;
    }
  }

  // The grid must exercise what it pins: finished and unfinished
  // exchanges, relay repair and budget deferrals, and testbed links
  // with and without a relay.
  EXPECT_GT(failed, 10u);
  EXPECT_GT(succeeded, 100u);
  EXPECT_GT(relay_bits, 0u);
  EXPECT_GT(deferrals, 0u);
  EXPECT_GT(no_relay, 0u);
  EXPECT_GT(with_relay, 0u);
  EXPECT_EQ(Crc32(bytes), 0xEDB18824u);
}

// A relay-coded strategy with an empty roster is the coded strategy:
// the same one-party feedback wire, requests and ingest. Over the pin's
// seed grid, every outcome field of the runner and the payload a kept
// session's destination assembled match.
TEST(RecoverySessionTest, ZeroRelayRosterIsCodedRepair) {
  const phy::ChipCodebook cb;
  PpArqConfig coded;
  coded.recovery = RecoveryMode::kCodedRepair;
  PpArqConfig relay = coded;
  relay.recovery = RecoveryMode::kRelayCodedRepair;
  relay.relay_parties = 0;
  const auto outcome = [&](const PpArqConfig& config, std::uint64_t seed) {
    const std::size_t max_rounds = 1 + seed % 3;
    Rng prng(seed);
    const BitVec payload = RandomPayload(prng, 60);
    const auto strategy = MakeRecoveryStrategy(config);
    std::deque<Rng> rngs;
    std::vector<std::uint8_t> bytes;
    AppendStats(bytes, RunMultiRelayRecoveryExchange(
                           payload, config, *strategy,
                           PinChannels(cb, seed, 0, rngs), max_rounds));
    const BitVec body = PpArqSender::MakeBody(payload);
    RecoverySession session(RelayTopology(PinChannels(cb, seed, 0, rngs)));
    session.AddParty(strategy->MakeSourceParticipant(body, 1));
    session.AddParty(strategy->MakeDestinationParticipant(1, body.size() / 4));
    session.TransmitInitial(kSessionSourceId, body);
    AppendStats(bytes, session.Run(max_rounds));
    const auto assembled =
        static_cast<DestinationParticipant&>(
            session.party(kSessionDestinationId))
            .AssembledPayload()
            .ToBytes();
    bytes.insert(bytes.end(), assembled.begin(), assembled.end());
    return bytes;
  };
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    EXPECT_EQ(outcome(relay, seed), outcome(coded, seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ppr::arq
