#include "collide/runner.h"

#include <stdexcept>

#include "arq/pp_arq.h"
#include "arq/recovery_session.h"
#include "obs/obs.h"

namespace ppr::collide {

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
  CollisionExchangeOutcome out;
  const phy::ChipCodebook codebook;
  const std::uint16_t seq = 1;
  const BitVec body = arq::PpArqSender::MakeBody(payload_bits);

  const CollisionEpisode episode =
      DrawCollisionEpisode(codebook, body, episode_params, episode_rng);

  auto source = strategy.MakeSourceParticipant(body, seq);
  auto destination = strategy.MakeDestinationParticipant(
      seq, body.size() / config.bits_per_codeword);

  // Both collided copies of A crossed the air whether or not anything
  // is distilled from them, so both legs pay the same initial budget.
  out.totals.data_transmissions = 2;
  out.totals.forward_bits = 2 * body.size();
  destination->IngestInitial(InitialSymbolsFromCapture(episode.first));

  if (resolve) {
    auto* consumer = dynamic_cast<arq::CollisionEquationConsumer*>(
        destination.get());
    if (consumer == nullptr) {
      throw std::invalid_argument(
          "RunCollisionRecoveryExchange: strategy's destination does not "
          "consume collision equations (use RecoveryMode::kCollisionResolve)");
    }
    CollisionListener listener(listener_config);
    const ResolvedCollision resolved = listener.Resolve(codebook, episode);
    out.collide = listener.stats();
    out.resolved_pair = resolved.a_resolved && resolved.b_resolved;
    out.equations_banked = resolved.equations.size();
    out.rank_gained = consumer->IngestCollisionEquations(resolved.equations);
    obs::Count("collide.rank_gained", out.rank_gained);
  }

  // The standard coded feedback loop finishes the packet: the
  // destination's feedback reaches the source reliably, and the
  // source's repair frames cross `repair_channel` in order.
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const auto opening = destination->StartRound();
    if (opening.empty()) break;
    ++out.rounds;
    for (const auto& feedback : opening) {
      out.totals.feedback_bits += feedback.feedback_wire.size();
      arq::DeliveredMessage request;
      request.type = arq::SessionMessageType::kFeedback;
      request.feedback_wire = feedback.feedback_wire;
      for (const auto& reply : source->HandleMessage(request)) {
        out.totals.forward_bits += reply.wire_bits;
        if (reply.wire_bits > 0) {
          out.totals.retransmission_bits.push_back(reply.wire_bits);
        }
        if (reply.frames.empty()) continue;
        ++out.totals.data_transmissions;
        arq::DeliveredMessage repair;
        repair.type = arq::SessionMessageType::kRepair;
        repair.frames.reserve(reply.frames.size());
        for (const auto& f : reply.frames) {
          arq::ReceivedRepairFrame rf(f.range, f.aux, repair_channel(f.bits));
          rf.origin = f.origin;
          rf.coef_mask = f.coef_mask;
          rf.suspicion = f.suspicion;
          repair.frames.push_back(std::move(rf));
        }
        destination->HandleMessage(repair);
      }
    }
  }
  out.totals.success = destination->Complete();
  return out;
}

}  // namespace ppr::collide
