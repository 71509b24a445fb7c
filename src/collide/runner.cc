#include "collide/runner.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "arq/pp_arq.h"
#include "obs/obs.h"

namespace ppr::collide {
namespace {

// The collision listener as a session party beside the destination: it
// heard the collided captures itself, so it never ingests the initial
// transmission, and it answers no feedback. It hands over its
// equations once, when the first round opens.
class ListenerParticipant : public arq::RecoveryParticipant {
 public:
  explicit ListenerParticipant(std::vector<CollisionEquation> equations)
      : equations_(std::move(equations)) {}

  arq::PartyRole role() const override { return arq::PartyRole::kListener; }

  void IngestInitial(const std::vector<phy::DecodedSymbol>&) override {}

  std::vector<arq::SessionMessage> StartRound() override {
    if (handed_over_) return {};
    handed_over_ = true;
    std::vector<arq::SessionMessage> opening(1);
    opening.front().type = arq::SessionMessageType::kEquations;
    opening.front().to = arq::kSessionDestinationId;
    opening.front().equations = std::move(equations_);
    return opening;
  }

  std::vector<arq::SessionMessage> HandleMessage(
      const arq::DeliveredMessage&) override {
    return {};
  }

 private:
  std::vector<CollisionEquation> equations_;
  bool handed_over_ = false;
};

}  // namespace

CollisionExchangeOutcome RunCollisionRecoveryExchange(
    const BitVec& payload_bits, const arq::PpArqConfig& config,
    const arq::RecoveryStrategy& strategy,
    const arq::BodyChannel& repair_channel,
    const CollisionEpisodeParams& episode_params, Rng& episode_rng,
    const CollisionListenerConfig& listener_config, bool resolve,
    std::size_t max_rounds) {
  if (config.bits_per_codeword != 4) {
    throw std::invalid_argument(
        "RunCollisionRecoveryExchange: collision captures carry 4-bit "
        "codewords");
  }
  if (resolve && config.recovery != arq::RecoveryMode::kCollisionResolve) {
    throw std::invalid_argument(
        "RunCollisionRecoveryExchange: resolve needs "
        "RecoveryMode::kCollisionResolve");
  }
  CollisionExchangeOutcome out;
  const phy::ChipCodebook codebook;
  const std::uint16_t seq = 1;
  const BitVec body = arq::PpArqSender::MakeBody(payload_bits);

  const CollisionEpisode episode =
      DrawCollisionEpisode(codebook, body, episode_params, episode_rng);

  // The first capture is the destination's copy of the initial
  // transmission, so the repair channel carries repair frames only.
  arq::SessionConfig topology;
  topology.edges.push_back(
      {arq::kSessionSourceId, arq::kSessionDestinationId, repair_channel});
  arq::SessionBroadcast initial;
  initial.from = arq::kSessionSourceId;
  initial.listeners = {arq::kSessionDestinationId};
  initial.channel = [&episode](const BitVec&) {
    std::vector<std::vector<phy::DecodedSymbol>> receptions;
    receptions.push_back(InitialSymbolsFromCapture(episode.first));
    return receptions;
  };
  topology.initial_broadcast = std::move(initial);
  arq::RecoverySession session(std::move(topology));
  const arq::PartyId source =
      session.AddParty(strategy.MakeSourceParticipant(body, seq));
  auto destination_party = strategy.MakeDestinationParticipant(
      seq, body.size() / config.bits_per_codeword);
  const arq::DestinationParticipant& destination = *destination_party;
  session.AddParty(std::move(destination_party));
  if (resolve) {
    CollisionListener listener(listener_config);
    ResolvedCollision resolved = listener.Resolve(codebook, episode);
    out.collide = listener.stats();
    out.resolved_pair = resolved.a_resolved && resolved.b_resolved;
    out.equations_banked = resolved.equations.size();
    session.AddParty(
        std::make_unique<ListenerParticipant>(std::move(resolved.equations)));
  }
  session.TransmitInitial(source, body);
  out.stats = session.Run(max_rounds);
  // The second collided copy of A crossed the air too, whether or not
  // anything is distilled from it.
  out.stats.totals.forward_bits += body.size();
  ++out.stats.totals.data_transmissions;
  if (resolve) {
    out.rank_gained = destination.EquationRank();
    obs::Count("collide.rank_gained", out.rank_gained);
  }
  return out;
}

}  // namespace ppr::collide
