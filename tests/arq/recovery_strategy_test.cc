#include "arq/recovery_strategy.h"

#include <gtest/gtest.h>

#include "arq/feedback.h"
#include "arq/link_sim.h"
#include "arq/recovery_session.h"
#include "common/rng.h"

namespace ppr::arq {
namespace {

BitVec RandomPayload(Rng& rng, std::size_t octets) {
  BitVec bits;
  for (std::size_t i = 0; i < octets * 8; ++i) {
    bits.PushBack(rng.Bernoulli(0.5));
  }
  return bits;
}

GilbertElliottParams BurstyParams() {
  GilbertElliottParams params;
  params.p_good_to_bad = 0.02;
  params.p_bad_to_good = 0.15;
  params.chip_error_good = 0.002;
  params.chip_error_bad = 0.25;
  return params;
}

// Drives one exchange through the strategy's two participants and
// returns the destination's assembled payload alongside the run stats.
struct Outcome {
  bool success = false;
  BitVec payload;
  ArqRunStats stats;
};

Outcome RunExchange(const RecoveryStrategy& strategy,
                    const PpArqConfig& config, const BitVec& payload,
                    std::uint64_t channel_seed,
                    std::size_t max_rounds = 32) {
  const phy::ChipCodebook cb;
  Rng channel_rng(channel_seed);
  const auto channel =
      MakeGilbertElliottChannel(cb, BurstyParams(), channel_rng);

  Outcome out;
  const BitVec body = PpArqSender::MakeBody(payload);
  auto source = strategy.MakeSourceParticipant(body, 1);
  auto destination = strategy.MakeDestinationParticipant(
      1, body.size() / config.bits_per_codeword);
  out.stats.forward_bits += body.size();
  ++out.stats.data_transmissions;
  destination->IngestInitial(channel(body));
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const auto opening = destination->StartRound();
    if (opening.empty()) break;
    DeliveredMessage feedback;
    feedback.type = SessionMessageType::kFeedback;
    feedback.feedback_wire = opening.front().feedback_wire;
    out.stats.feedback_bits += feedback.feedback_wire.size();
    for (const SessionMessage& plan : source->HandleMessage(feedback)) {
      out.stats.forward_bits += plan.wire_bits;
      out.stats.retransmission_bits.push_back(plan.wire_bits);
      ++out.stats.data_transmissions;
      DeliveredMessage repair;
      repair.type = SessionMessageType::kRepair;
      for (const auto& frame : plan.frames) {
        repair.frames.push_back(
            ReceivedRepairFrame{frame.range, frame.aux, channel(frame.bits)});
      }
      destination->HandleMessage(repair);
    }
  }
  out.success = destination->Complete();
  out.payload = destination->AssembledPayload();
  return out;
}

// Satellite: the generalized feedback wire round-trips any roster size
// the protocol supports, including zero-count parties (a party the
// destination wants silent this round).
TEST(CodedFeedbackWireTest, RoundTripsForRostersOfOneThroughEight) {
  Rng rng(551);
  for (std::size_t parties = 1; parties <= 8; ++parties) {
    for (int trial = 0; trial < 32; ++trial) {
      CodedFeedbackWire fb;
      fb.seq = static_cast<std::uint16_t>(rng.UniformInt(0x10000));
      for (std::size_t i = 0; i < parties; ++i) {
        // Mix zero counts in liberally.
        fb.requested.push_back(rng.Bernoulli(0.25)
                                   ? 0
                                   : rng.UniformInt(0x10000));
      }
      const BitVec wire = EncodeCodedFeedbackWire(fb);
      EXPECT_EQ(wire.size(), 16u + 8u + parties * 16u);
      const auto decoded = DecodeCodedFeedbackWire(wire);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, fb);
    }
  }
}

TEST(CodedFeedbackWireTest, RejectsTruncatedAndDegenerateWires) {
  CodedFeedbackWire fb;
  fb.seq = 77;
  fb.requested = {3, 0, 9};
  const BitVec wire = EncodeCodedFeedbackWire(fb);
  // Every strict prefix fails to decode: a wire that promises three
  // counts must carry all three.
  for (std::size_t bits = 0; bits < wire.size(); ++bits) {
    EXPECT_EQ(DecodeCodedFeedbackWire(wire.Slice(0, bits)), std::nullopt)
        << "prefix of " << bits << " bits";
  }
  // A zero party count is not a wire.
  BitVec empty_roster;
  empty_roster.AppendUint(77, 16);
  empty_roster.AppendUint(0, 8);
  EXPECT_EQ(DecodeCodedFeedbackWire(empty_roster), std::nullopt);
  // Encoding rejects rosters the 8-bit count field cannot carry.
  EXPECT_THROW(EncodeCodedFeedbackWire(CodedFeedbackWire{1, {}}),
               std::invalid_argument);
  EXPECT_THROW(
      EncodeCodedFeedbackWire(CodedFeedbackWire{
          1, std::vector<std::size_t>(300, 1)}),
      std::invalid_argument);
  EXPECT_THROW(EncodeCodedFeedbackWire(CodedFeedbackWire{1, {0x10000}}),
               std::invalid_argument);
}

// The destination's first feedback wire after an initial copy whose
// first 40 codewords are erased.
BitVec FirstFeedbackWire(const RecoveryStrategy& strategy,
                         const BitVec& body) {
  auto destination = strategy.MakeDestinationParticipant(1, body.size() / 4);
  std::vector<phy::DecodedSymbol> copy(body.size() / 4);
  for (std::size_t i = 0; i < copy.size(); ++i) {
    copy[i].symbol = static_cast<std::uint8_t>(body.ReadUint(4 * i, 4));
    copy[i].hint = i < 40 ? 16.0 : 0.0;
    if (i < 40) copy[i].symbol ^= 0xF;
  }
  destination->IngestInitial(copy);
  const auto opening = destination->StartRound();
  EXPECT_EQ(opening.size(), 1u);
  return opening.empty() ? BitVec() : opening.front().feedback_wire;
}

// Each mode's strategy shows in what its destination asks for and in
// the relay roster it builds.
TEST(RecoveryStrategyTest, FactoryDispatchesOnMode) {
  Rng prng(521);
  const BitVec body = PpArqSender::MakeBody(RandomPayload(prng, 60));
  PpArqConfig config;
  const auto chunk = MakeRecoveryStrategy(config);
  const auto chunk_feedback =
      DecodeFeedback(FirstFeedbackWire(*chunk, body), body.size() / 4, 4, 32);
  ASSERT_TRUE(chunk_feedback.has_value());
  EXPECT_FALSE(chunk_feedback->feedback.requests.empty());
  EXPECT_EQ(chunk->MakeRelayParticipant(1, 1, body.size() / 4), nullptr);

  for (const auto mode :
       {RecoveryMode::kCodedRepair, RecoveryMode::kCollisionResolve,
        RecoveryMode::kRelayCodedRepair}) {
    config.recovery = mode;
    config.relay_parties = 2;
    const auto coded = MakeRecoveryStrategy(config);
    const std::size_t relays =
        mode == RecoveryMode::kRelayCodedRepair ? 2 : 0;
    const auto request =
        DecodeCodedFeedbackWire(FirstFeedbackWire(*coded, body));
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->requested.size(), 1 + relays);
    EXPECT_GT(request->requested.front(), 0u);
    for (std::uint8_t id = 1; id <= 3; ++id) {
      EXPECT_EQ(coded->MakeRelayParticipant(id, 1, body.size() / 4) != nullptr,
                id <= relays);
    }
  }
}

TEST(RecoveryStrategyTest, CodedConfigMustMakeOctetSymbols) {
  PpArqConfig config;
  config.recovery = RecoveryMode::kCodedRepair;
  config.codewords_per_fec_symbol = 3;  // 12 bits: not whole octets
  EXPECT_THROW(MakeRecoveryStrategy(config), std::invalid_argument);
  // 6 codewords x 4 bits = 3 bytes per FEC symbol: whole octets, and
  // RLNC takes any symbol size.
  config.codewords_per_fec_symbol = 6;
  EXPECT_NO_THROW(MakeRecoveryStrategy(config));
}

TEST(RecoveryStrategyTest, BothStrategiesCompleteOnCleanChannel) {
  Rng prng(501);
  const BitVec payload = RandomPayload(prng, 120);
  const phy::ChipCodebook cb;
  for (const auto mode :
       {RecoveryMode::kChunkRetransmit, RecoveryMode::kCodedRepair}) {
    PpArqConfig config;
    config.recovery = mode;
    Rng channel_rng(502);
    const auto channel = MakeChipErrorChannel(cb, 0.0, channel_rng);
    const auto stats = RunPpArqExchange(payload, config, channel);
    EXPECT_TRUE(stats.success);
    EXPECT_EQ(stats.data_transmissions, 1u);
    EXPECT_TRUE(stats.retransmission_bits.empty());
  }
}

// The acceptance criterion of the coded-repair subsystem: on the same
// simulated trace (identically seeded channels), kCodedRepair delivers
// byte-identical packets to kChunkRetransmit.
TEST(RecoveryStrategyTest, CodedRepairDeliversByteIdenticalPackets) {
  for (const std::uint64_t seed : {511ull, 512ull, 513ull, 514ull}) {
    Rng prng(seed);
    const BitVec payload = RandomPayload(prng, 200);

    PpArqConfig chunk_config;
    const auto chunk = RunExchange(*MakeRecoveryStrategy(chunk_config),
                                   chunk_config, payload, seed ^ 0xC0FFEE);

    PpArqConfig coded_config;
    coded_config.recovery = RecoveryMode::kCodedRepair;
    const auto coded = RunExchange(*MakeRecoveryStrategy(coded_config),
                                   coded_config, payload, seed ^ 0xC0FFEE);

    ASSERT_TRUE(chunk.success) << "seed=" << seed;
    ASSERT_TRUE(coded.success) << "seed=" << seed;
    EXPECT_EQ(chunk.payload, payload) << "seed=" << seed;
    EXPECT_EQ(coded.payload, payload) << "seed=" << seed;
    EXPECT_EQ(coded.payload, chunk.payload) << "seed=" << seed;
    // Both modes actually exercised the repair path on this channel.
    EXPECT_FALSE(chunk.stats.retransmission_bits.empty());
    EXPECT_FALSE(coded.stats.retransmission_bits.empty());
  }
}

TEST(RecoveryStrategyTest, ChunkStrategyMatchesLegacyExchange) {
  // RunPpArqExchange must be bit-for-bit the pre-strategy behavior:
  // same channel draws, same stats.
  Rng prng(521);
  const BitVec payload = RandomPayload(prng, 300);
  const phy::ChipCodebook cb;

  PpArqConfig config;
  Rng rng_a(522);
  auto channel_a = MakeGilbertElliottChannel(cb, BurstyParams(), rng_a);
  const auto via_dispatch = RunPpArqExchange(payload, config, channel_a);

  Rng rng_b(522);
  auto channel_b = MakeGilbertElliottChannel(cb, BurstyParams(), rng_b);
  const auto via_strategy =
      RunRecoveryExchangeSession(payload, config,
                                 *MakeRecoveryStrategy(config), channel_b)
          .totals;

  EXPECT_EQ(via_dispatch.success, via_strategy.success);
  EXPECT_EQ(via_dispatch.data_transmissions, via_strategy.data_transmissions);
  EXPECT_EQ(via_dispatch.forward_bits, via_strategy.forward_bits);
  EXPECT_EQ(via_dispatch.feedback_bits, via_strategy.feedback_bits);
  EXPECT_EQ(via_dispatch.retransmission_bits,
            via_strategy.retransmission_bits);
}

TEST(RecoveryStrategyTest, LargeRepairBurstsSplitIntoBodySizedFrames) {
  // A worst-case deficit (everything erased) must not produce a repair
  // frame larger than the original packet: carriers that accepted the
  // initial transmission must keep accepting repair frames.
  Rng prng(541);
  const BitVec body = PpArqSender::MakeBody(RandomPayload(prng, 250));
  PpArqConfig config;
  config.recovery = RecoveryMode::kCodedRepair;
  auto source = MakeRecoveryStrategy(config)->MakeSourceParticipant(body, 1);

  DeliveredMessage feedback;
  feedback.type = SessionMessageType::kFeedback;
  feedback.feedback_wire = EncodeCodedFeedbackWire(
      CodedFeedbackWire{/*seq=*/1, {0xFFFF}});  // deficit: everything (clamped)
  const auto replies = source->HandleMessage(feedback);
  ASSERT_EQ(replies.size(), 1u);
  const SessionMessage& plan = replies.front();
  ASSERT_GT(plan.frames.size(), 1u);
  std::size_t total_bits = 0;
  for (const auto& f : plan.frames) {
    EXPECT_LE(f.bits.size(), body.size());
    EXPECT_EQ(f.range.length, f.bits.size() / config.bits_per_codeword);
    total_bits += f.bits.size();
  }
  EXPECT_LE(total_bits, plan.wire_bits);
}

TEST(RecoveryStrategyTest, UnparsableFeedbackThrows) {
  Rng prng(542);
  const BitVec body = PpArqSender::MakeBody(RandomPayload(prng, 60));
  for (const auto mode :
       {RecoveryMode::kChunkRetransmit, RecoveryMode::kCodedRepair}) {
    PpArqConfig config;
    config.recovery = mode;
    auto source = MakeRecoveryStrategy(config)->MakeSourceParticipant(body, 1);
    DeliveredMessage feedback;
    feedback.type = SessionMessageType::kFeedback;
    feedback.feedback_wire = BitVec(8, false);
    EXPECT_THROW(source->HandleMessage(feedback), std::logic_error);
  }
}

TEST(RecoveryStrategyTest, CodedFeedbackIsCompact) {
  // Coded feedback is a fixed 40-bit (seq, party_count = 1, deficit)
  // record, far below the chunk-mode feedback with its per-gap
  // verification data.
  Rng prng(531);
  const BitVec payload = RandomPayload(prng, 200);
  PpArqConfig config;
  config.recovery = RecoveryMode::kCodedRepair;
  const auto out =
      RunExchange(*MakeRecoveryStrategy(config), config, payload, 532);
  ASSERT_TRUE(out.success);
  ASSERT_GT(out.stats.data_transmissions, 1u);
  const std::size_t rounds = out.stats.data_transmissions - 1;
  EXPECT_EQ(out.stats.feedback_bits, rounds * 40u);
}

}  // namespace
}  // namespace ppr::arq
