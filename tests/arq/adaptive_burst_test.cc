#include "arq/adaptive_burst.h"

#include <gtest/gtest.h>

#include "arq/link_sim.h"
#include "arq/recovery_session.h"
#include "arq/recovery_strategy.h"
#include "common/crc.h"
#include "common/rng.h"
#include "fec/coded_repair.h"
#include "fec/rlnc.h"

namespace ppr::arq {
namespace {

TEST(BurstSizeForTargetTest, CleanChannelRequestsExactlyTheDeficit) {
  for (const std::size_t deficit : {1u, 3u, 17u, 64u}) {
    EXPECT_EQ(BurstSizeForTarget(deficit, 1.0, 0.95, 1024), deficit);
  }
  EXPECT_EQ(BurstSizeForTarget(0, 0.5, 0.95, 1024), 0u);
}

TEST(BurstSizeForTargetTest, LossGrowsTheBurst) {
  const std::size_t clean = BurstSizeForTarget(10, 1.0, 0.9, 1024);
  const std::size_t mild = BurstSizeForTarget(10, 0.8, 0.9, 1024);
  const std::size_t harsh = BurstSizeForTarget(10, 0.4, 0.9, 1024);
  EXPECT_EQ(clean, 10u);
  EXPECT_GT(mild, clean);
  EXPECT_GT(harsh, mild);
  // At delivery rate p the burst must at least cover deficit / p in
  // expectation to hit any target above one half.
  EXPECT_GE(harsh, 25u);
}

TEST(BurstSizeForTargetTest, HigherTargetNeverShrinksTheBurst) {
  const std::size_t relaxed = BurstSizeForTarget(8, 0.7, 0.5, 1024);
  const std::size_t strict = BurstSizeForTarget(8, 0.7, 0.99, 1024);
  EXPECT_GE(strict, relaxed);
}

TEST(BurstSizeForTargetTest, CapBoundsTheRequest) {
  EXPECT_EQ(BurstSizeForTarget(10, 0.05, 0.99, 40), 40u);
  EXPECT_EQ(BurstSizeForTarget(50, 1.0, 0.9, 40), 40u);
}

TEST(RepairDeliveryEstimatorTest, PriorUntilEvidenceThenObservedRate) {
  RepairDeliveryEstimator est(0.8);
  EXPECT_DOUBLE_EQ(est.DeliveryRate(), 0.8);
  est.OnRequested(20);
  est.OnDelivered(10);
  EXPECT_DOUBLE_EQ(est.DeliveryRate(), 0.5);
  est.OnRequested(20);
  est.OnDelivered(20);
  EXPECT_DOUBLE_EQ(est.DeliveryRate(), 0.75);
}

TEST(RepairDeliveryEstimatorTest, SilenceClampsToFloor) {
  RepairDeliveryEstimator est(0.8);
  est.OnRequested(100);
  EXPECT_DOUBLE_EQ(est.DeliveryRate(), RepairDeliveryEstimator::kFloor);
}

// --------------------------------------------------------------------
// The satellite's end-to-end property, driven through the real coded
// receiver: a lossy round grows the next burst beyond the deficit,
// while a clean round converges the request to deficit + 0.

// A destination with `erased` trailing codewords unusable, so the
// session opens with a known deficit.
std::unique_ptr<DestinationParticipant> ReceiverWithErasures(
    const PpArqConfig& config, const BitVec& body, std::size_t erased_codewords,
    std::unique_ptr<DestinationParticipant> receiver) {
  const std::size_t n = body.size() / config.bits_per_codeword;
  std::vector<phy::DecodedSymbol> symbols(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool erased = i + erased_codewords >= n;
    auto value = static_cast<std::uint8_t>(body.ReadUint(i * 4, 4));
    if (erased) value = static_cast<std::uint8_t>(value ^ 0xF);  // garbage
    symbols[i].symbol = value;
    symbols[i].hint =
        erased ? std::numeric_limits<double>::infinity() : 0.0;
  }
  receiver->IngestInitial(symbols);
  return receiver;
}

// The destination's next feedback wire; nullopt once it stops asking.
std::optional<BitVec> NextFeedbackWire(DestinationParticipant& receiver) {
  const auto opening = receiver.StartRound();
  if (opening.empty()) return std::nullopt;
  return opening.front().feedback_wire;
}

void DeliverRepair(DestinationParticipant& receiver,
                   std::vector<ReceivedRepairFrame> frames) {
  DeliveredMessage repair;
  repair.type = SessionMessageType::kRepair;
  repair.frames = std::move(frames);
  receiver.HandleMessage(repair);
}

struct WireRequest {
  std::uint16_t seq;
  std::size_t count;
};

WireRequest ParseRequest(const BitVec& wire) {
  const auto fb = DecodeCodedFeedbackWire(wire);
  EXPECT_TRUE(fb.has_value());
  return {fb->seq, fb->requested.front()};
}

TEST(AdaptiveCodedSizingTest, CleanDeliveryConvergesToDeficitPlusZero) {
  PpArqConfig config;
  config.recovery = RecoveryMode::kCodedRepair;
  Rng rng(701);
  BitVec payload;
  for (std::size_t i = 0; i < 160 * 8; ++i) payload.PushBack(rng.Bernoulli(0.5));
  const BitVec body = PpArqSender::MakeBody(payload);
  const auto strategy = MakeRecoveryStrategy(config);
  // The trailing 64 bad codewords cross a symbol boundary (328 is not a
  // multiple of 16), so 5 of the 21 FEC symbols are unusable.
  auto receiver = ReceiverWithErasures(
      config, body, 4 * config.codewords_per_fec_symbol,
      strategy->MakeDestinationParticipant(1, body.size() / 4));

  const auto wire1 = NextFeedbackWire(*receiver);
  ASSERT_TRUE(wire1.has_value());
  const auto req1 = ParseRequest(*wire1);
  // Round one runs on the prior (the old 25% headroom).
  EXPECT_GT(req1.count, 5u);

  // Deliver every requested record with a valid CRC — but all of them
  // the SAME honest repair symbol (one single-record frame per copy, so
  // every claimed seed is seed 1): delivery looks perfect while rank
  // grows by only one, and the next request must be exactly the
  // remaining deficit with zero headroom.
  const fec::RlncEncoder encoder(
      fec::BodyToSymbols(body, 4, config.codewords_per_fec_symbol));
  const fec::RepairSymbol repair = encoder.MakeRepair(1);
  BitVec bits = BitVec::FromBytes(repair.data);
  bits.AppendUint(Crc32Bits(BitVec::FromBytes(repair.data)), 32);
  std::vector<phy::DecodedSymbol> symbols(bits.size() / 4);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    symbols[i].symbol = static_cast<std::uint8_t>(bits.ReadUint(i * 4, 4));
    symbols[i].hint = 0.0;
  }
  std::vector<ReceivedRepairFrame> frames(req1.count);
  for (auto& frame : frames) {
    frame.range = CodewordRange{0, bits.size() / 4};
    frame.aux = 1;
    frame.symbols = symbols;
  }
  DeliverRepair(*receiver, std::move(frames));

  const auto wire2 = NextFeedbackWire(*receiver);
  ASSERT_TRUE(wire2.has_value());
  const auto req2 = ParseRequest(*wire2);
  EXPECT_EQ(req2.count, 4u);  // deficit 5 - 1 rank gained, plus zero
}

TEST(AdaptiveCodedSizingTest, LossyDeliveryGrowsTheBurst) {
  PpArqConfig config;
  config.recovery = RecoveryMode::kCodedRepair;
  Rng rng(702);
  BitVec payload;
  for (std::size_t i = 0; i < 160 * 8; ++i) payload.PushBack(rng.Bernoulli(0.5));
  const BitVec body = PpArqSender::MakeBody(payload);
  const auto strategy = MakeRecoveryStrategy(config);
  auto receiver = ReceiverWithErasures(
      config, body, 4 * config.codewords_per_fec_symbol,
      strategy->MakeDestinationParticipant(1, body.size() / 4));

  const auto wire1 = NextFeedbackWire(*receiver);
  ASSERT_TRUE(wire1.has_value());
  const auto req1 = ParseRequest(*wire1);

  // Every record of round one is lost (the repair frame never decodes);
  // the delivery estimate collapses and the burst must grow.
  DeliverRepair(*receiver, {});
  const auto wire2 = NextFeedbackWire(*receiver);
  ASSERT_TRUE(wire2.has_value());
  const auto req2 = ParseRequest(*wire2);
  EXPECT_GT(req2.count, req1.count);
  EXPECT_GT(req2.count, 4u * 4u);  // far beyond the deficit
}

}  // namespace
}  // namespace ppr::arq
