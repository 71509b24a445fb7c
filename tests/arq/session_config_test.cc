// SessionConfig, the one way to build a session's topology: it is
// checked at construction and again, against the final roster, when
// traffic first moves.
#include "arq/recovery_session.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "arq/link_sim.h"
#include "arq/pp_arq.h"
#include "arq/recovery_strategy.h"
#include "common/rng.h"
#include "phy/chip_sequences.h"

namespace ppr::arq {
namespace {

BitVec RandomPayload(Rng& rng, std::size_t octets) {
  BitVec bits;
  for (std::size_t i = 0; i < octets * 8; ++i) {
    bits.PushBack(rng.Bernoulli(0.5));
  }
  return bits;
}

GilbertElliottParams StrongParams() {
  GilbertElliottParams params;
  params.p_good_to_bad = 0.001;
  params.p_bad_to_good = 0.5;
  params.chip_error_good = 0.0005;
  params.chip_error_bad = 0.05;
  return params;
}

TEST(SessionConfigTest, ConstructionRejectsDegenerateTopology) {
  SessionConfig self_loop;
  self_loop.edges.push_back({1, 1, BodyChannel{}});
  EXPECT_THROW(RecoverySession{std::move(self_loop)}, std::invalid_argument);

  SessionConfig null_broadcast;
  null_broadcast.initial_broadcast =
      SessionBroadcast{0, {1}, BroadcastBodyChannel{}};
  EXPECT_THROW(RecoverySession{std::move(null_broadcast)},
               std::invalid_argument);
}

// Config edges may name parties that do not exist yet — validation
// waits until traffic first moves, then rejects the unknown party.
TEST(SessionConfigTest, UnknownPartyIsRejectedAtFirstTraffic) {
  const phy::ChipCodebook cb;
  Rng prng(741);
  const BitVec payload = RandomPayload(prng, 40);
  PpArqConfig config;
  config.recovery = RecoveryMode::kCodedRepair;
  const auto strategy = MakeRecoveryStrategy(config);
  const BitVec body = PpArqSender::MakeBody(payload);

  SessionConfig topology;
  Rng channel_rng(742);
  topology.edges.push_back(
      {kSessionSourceId, /*to=*/7,
       MakeGilbertElliottChannel(cb, StrongParams(), channel_rng)});
  RecoverySession session{std::move(topology)};
  session.AddParty(strategy->MakeSourceParticipant(body, 1));
  session.AddParty(strategy->MakeDestinationParticipant(
      1, body.size() / config.bits_per_codeword));
  EXPECT_THROW(session.TransmitInitial(kSessionSourceId, body),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppr::arq
