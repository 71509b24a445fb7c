// One PP-ARQ packet exchange whose initial transmission is a two-party
// double collision: the packet under recovery (A) collides twice with
// the same interfering packet (B) at different offsets, the collision
// listener distills equations from the pair of captures, and the
// coded-repair feedback loop finishes whatever rank is still missing.
// The discard baseline — today's behavior — is the same exchange with
// `resolve` off: the receiver keeps only the clean codewords of the
// first capture and pays for the rest in repair symbols.
//
// The exchange is one RecoverySession (arq/recovery_session.h): source,
// destination and, with `resolve` on, the listener as a third party
// that hands the destination its equations (kEquations) when the first
// round opens, before any feedback. In the spirit of "Collision Helps"
// (ParandehGheibi et al.), a collided reception is one more coded
// packet for the decoder.
#pragma once

#include <cstddef>

#include "arq/link_sim.h"
#include "arq/recovery_session.h"
#include "arq/recovery_strategy.h"
#include "collide/capture.h"
#include "collide/listener.h"
#include "common/bitvec.h"
#include "common/rng.h"

namespace ppr::collide {

struct CollisionExchangeOutcome {
  // The session's accounting. Both collided copies of A are charged as
  // initial transmissions, so the discard and resolve legs pay the same
  // initial airtime and any repair-bit difference is pure
  // collision-recovery yield.
  arq::SessionRunStats stats;
  CollisionStats collide;
  // Both packets of the double collision fully resolved by stripping.
  bool resolved_pair = false;
  std::size_t equations_banked = 0;
  // Decoder rank the banked equations contributed before any repair
  // symbol crossed the air.
  std::size_t rank_gained = 0;
};

// `config.bits_per_codeword` must be 4: captures are 4-bit DSSS
// nibbles, and `resolve` requires `config.recovery` to be
// kCollisionResolve (both throw std::invalid_argument otherwise).
// `strategy` builds the source and destination (a coded destination
// banks the listener's equations); `episode_rng` drives every
// collision draw (seed it from arq::SeedForCollisionRound so runs are
// schedule-invariant); `repair_channel` is the source -> destination
// edge that carries the repair frames. The first capture stands in for
// the initial transmission, so that edge draws nothing for it.
CollisionExchangeOutcome RunCollisionRecoveryExchange(
    const BitVec& payload_bits, const arq::PpArqConfig& config,
    const arq::RecoveryStrategy& strategy,
    const arq::BodyChannel& repair_channel,
    const CollisionEpisodeParams& episode_params, Rng& episode_rng,
    const CollisionListenerConfig& listener_config, bool resolve,
    std::size_t max_rounds = 32);

}  // namespace ppr::collide
