// The listener end to end: unit equations from stripped symbols,
// cross-cancelled equations from abandoned regions, stats accounting,
// and the full collision exchange (resolve beats discard on repair
// bits at equal delivery).
#include "collide/listener.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "arq/link_sim.h"
#include "arq/pp_arq.h"
#include "arq/recovery_strategy.h"
#include "collide/capture.h"
#include "collide/runner.h"
#include "common/crc.h"
#include "common/rng.h"
#include "phy/chip_sequences.h"

namespace ppr::collide {
namespace {

BitVec RandomBody(Rng& rng, std::size_t codewords) {
  BitVec bits;
  for (std::size_t i = 0; i < codewords; ++i) {
    bits.AppendUint(rng.UniformInt(16), 4);
  }
  return bits;
}

CollisionListenerConfig SmallSymbols() {
  CollisionListenerConfig config;
  config.codewords_per_fec_symbol = 4;
  return config;
}

TEST(CollisionListenerTest, CleanEpisodeResolvesPairAndEmitsUnitEquations) {
  const phy::ChipCodebook codebook;
  Rng rng(901);
  const BitVec a = RandomBody(rng, 32);
  CollisionEpisodeParams params;
  params.b_octets = 16;
  params.chip_error_p = 0.0;
  const auto episode = DrawCollisionEpisode(codebook, a, params, rng);

  CollisionListener listener(SmallSymbols());
  const ResolvedCollision r = listener.Resolve(codebook, episode);
  EXPECT_TRUE(r.a_resolved);
  EXPECT_TRUE(r.b_resolved);
  ASSERT_FALSE(r.equations.empty());
  // Unit equations carry the ground-truth symbol bytes.
  for (const auto& eq : r.equations) {
    std::size_t terms = 0, s = 0;
    for (std::size_t k = 0; k < eq.coefs.size(); ++k) {
      if (eq.coefs[k] != 0) { s = k; ++terms; }
    }
    ASSERT_EQ(terms, 1u);
    BitVec expected;
    for (std::size_t i = s * 4; i < (s + 1) * 4; ++i) {
      expected.AppendUint(a.ReadUint(i * 4, 4), 4);
    }
    EXPECT_EQ(eq.data, expected.ToBytes()) << "symbol " << s;
  }
  const CollisionStats& stats = listener.stats();
  EXPECT_EQ(stats.episodes_seen, 1u);
  EXPECT_EQ(stats.pairs_resolved, 1u);
  EXPECT_EQ(stats.episodes_abandoned, 0u);
  EXPECT_GT(stats.codewords_stripped, 0u);
  EXPECT_EQ(stats.equations_banked, r.equations.size());
}

TEST(CollisionListenerTest, AbandonedEpisodeStillBanksEquations) {
  const phy::ChipCodebook codebook;
  Rng rng(911);
  const BitVec a = RandomBody(rng, 32);
  const BitVec b = RandomBody(rng, 32);
  // Hand-built episode with symbol-aligned offsets so the algebraic
  // path has material, and strip thresholds that forbid stripping.
  CollisionEpisode episode;
  episode.b_body = b;
  episode.first = SimulateCollisionCapture(codebook, a, b, 4, 0.0, rng);
  episode.second = SimulateCollisionCapture(codebook, a, b, 8, 0.0, rng);

  CollisionListenerConfig config = SmallSymbols();
  config.strip.max_chain_suspicion = -1.0;  // stripping always bails
  CollisionListener listener(config);
  const ResolvedCollision r = listener.Resolve(codebook, episode);
  EXPECT_FALSE(r.a_resolved);
  EXPECT_TRUE(r.strip.abandoned);
  EXPECT_GT(listener.stats().cross_cancelled, 0u);
  EXPECT_EQ(listener.stats().episodes_abandoned, 1u);
  // With stripping disabled, knowledge comes from clean regions only:
  // the second capture's clean prefix [0, 8) covers codewords 4..7,
  // which lie inside the first capture's overlap, so symbol 1 alone
  // may surface as a unit equation. Everything else must be a
  // two-term cross-cancellation.
  std::size_t two_term = 0;
  for (const auto& eq : r.equations) {
    std::size_t terms = 0, s = 0;
    for (std::size_t k = 0; k < eq.coefs.size(); ++k) {
      if (eq.coefs[k] != 0) { s = k; ++terms; }
    }
    ASSERT_GE(terms, 1u);
    ASSERT_LE(terms, 2u);
    if (terms == 2) {
      ++two_term;
    } else {
      EXPECT_EQ(s, 1u);
    }
  }
  EXPECT_GT(two_term, 0u);
}

TEST(CollisionRunnerTest, ResolveDeliversWithFewerRepairBitsThanDiscard) {
  arq::PpArqConfig config;
  config.recovery = arq::RecoveryMode::kCollisionResolve;
  config.codewords_per_fec_symbol = 4;
  const auto strategy = arq::MakeRecoveryStrategy(config);

  const phy::ChipCodebook codebook;
  CollisionEpisodeParams params;
  params.b_octets = 40;
  params.chip_error_p = 0.0;
  CollisionListenerConfig listener_config;
  listener_config.codewords_per_fec_symbol = 4;

  std::size_t resolve_repair = 0, discard_repair = 0;
  std::size_t resolve_ok = 0, discard_ok = 0, pairs = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng payload_rng(seed);
    BitVec payload;
    for (std::size_t i = 0; i < 40; ++i) {
      payload.AppendUint(payload_rng.UniformInt(256), 8);
    }
    for (const bool resolve : {true, false}) {
      // Identical episode and repair-channel draws for the two legs.
      Rng episode_rng(seed * 1000);
      Rng channel_rng(seed * 2000);
      const auto channel =
          arq::MakeChipErrorChannel(codebook, 0.0, channel_rng);
      const auto outcome = RunCollisionRecoveryExchange(
          payload, config, *strategy, channel, params, episode_rng,
          listener_config, resolve);
      EXPECT_TRUE(outcome.stats.totals.success);
      std::size_t repair = 0;
      for (const auto bits : outcome.stats.totals.retransmission_bits) {
        repair += bits;
      }
      if (resolve) {
        resolve_repair += repair;
        resolve_ok += outcome.stats.totals.success;
        pairs += outcome.resolved_pair;
      } else {
        discard_repair += repair;
        discard_ok += outcome.stats.totals.success;
        EXPECT_EQ(outcome.rank_gained, 0u);
        EXPECT_EQ(outcome.collide.episodes_seen, 0u);
      }
    }
  }
  EXPECT_EQ(resolve_ok, discard_ok);
  EXPECT_GT(pairs, 0u);
  // Collision recovery yields strictly cheaper repair at equal delivery.
  EXPECT_LT(resolve_repair, discard_repair);
}

// Captures are 4-bit DSSS nibbles: any other codeword width is a
// configuration error, not a silently different exchange.
TEST(CollisionRunnerTest, RejectsCodewordWidthOtherThanFour) {
  arq::PpArqConfig config;
  config.recovery = arq::RecoveryMode::kCollisionResolve;
  const auto strategy = arq::MakeRecoveryStrategy(config);
  config.bits_per_codeword = 8;
  const phy::ChipCodebook codebook;
  Rng payload_rng(5), episode_rng(6), channel_rng(7);
  BitVec payload;
  for (std::size_t i = 0; i < 16; ++i) {
    payload.AppendUint(payload_rng.UniformInt(256), 8);
  }
  const auto channel = arq::MakeChipErrorChannel(codebook, 0.0, channel_rng);
  EXPECT_THROW(RunCollisionRecoveryExchange(payload, config, *strategy,
                                            channel, CollisionEpisodeParams{},
                                            episode_rng,
                                            CollisionListenerConfig{},
                                            /*resolve=*/true),
               std::invalid_argument);
}

void AppendWord(std::vector<std::uint8_t>& bytes, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

// Every field of 600 exchanges: 100 seeds x chip noise {0, 0.002,
// 0.01} x resolve on and off. The noise hits both captures and the
// clean state of a bursty repair channel, and a two-round cap leaves
// some exchanges unfinished. The CRC pins the whole exchange (capture,
// stripping, banking, feedback, repair and their accounting): a change
// meant to keep behaviour leaves it alone.
TEST(CollisionRunnerTest, OutcomesArePinned) {
  arq::PpArqConfig config;
  config.recovery = arq::RecoveryMode::kCollisionResolve;
  config.codewords_per_fec_symbol = 4;
  const auto strategy = arq::MakeRecoveryStrategy(config);
  const phy::ChipCodebook codebook;
  CollisionListenerConfig listener_config;
  listener_config.codewords_per_fec_symbol = 4;

  std::vector<std::uint8_t> bytes;
  std::size_t failed = 0, no_rounds = 0, two_rounds = 0, pairs = 0;
  std::size_t abandoned = 0, rank_gained = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng payload_rng(seed);
    BitVec payload;
    for (std::size_t i = 0; i < 40; ++i) {
      payload.AppendUint(payload_rng.UniformInt(256), 8);
    }
    for (const double noise : {0.0, 0.002, 0.01}) {
      for (const bool resolve : {true, false}) {
        CollisionEpisodeParams params;
        params.b_octets = 16 + seed % 40;
        params.chip_error_p = noise;
        Rng episode_rng(seed * 1000 + 7);
        Rng channel_rng(seed * 2000 + 11);
        arq::GilbertElliottParams repair;
        repair.chip_error_good = noise;
        repair.chip_error_bad = 0.3;
        repair.p_good_to_bad = 0.05;
        repair.p_bad_to_good = 0.1;
        const auto channel =
            arq::MakeGilbertElliottChannel(codebook, repair, channel_rng);
        const auto outcome = RunCollisionRecoveryExchange(
            payload, config, *strategy, channel, params, episode_rng,
            listener_config, resolve, /*max_rounds=*/2);
        const arq::ArqRunStats& totals = outcome.stats.totals;
        AppendWord(bytes, totals.success);
        AppendWord(bytes, totals.data_transmissions);
        AppendWord(bytes, totals.forward_bits);
        AppendWord(bytes, totals.feedback_bits);
        AppendWord(bytes, totals.retransmission_bits.size());
        for (const auto bits : totals.retransmission_bits) {
          AppendWord(bytes, bits);
        }
        AppendWord(bytes, outcome.stats.rounds);
        AppendWord(bytes, outcome.resolved_pair);
        AppendWord(bytes, outcome.equations_banked);
        AppendWord(bytes, outcome.rank_gained);
        const CollisionStats& c = outcome.collide;
        for (const std::size_t v :
             {c.episodes_seen, c.codewords_stripped, c.equations_banked,
              c.cross_cancelled, c.episodes_abandoned, c.strip_rounds,
              c.pairs_resolved}) {
          AppendWord(bytes, v);
        }
        failed += !totals.success;
        no_rounds += outcome.stats.rounds == 0;
        two_rounds += outcome.stats.rounds == 2;
        pairs += outcome.resolved_pair;
        abandoned += c.episodes_abandoned;
        rank_gained += outcome.rank_gained;
      }
    }
  }
  // The sweep must exercise what it pins: exchanges finished by the
  // banked equations alone, by one round and by two, unfinished ones,
  // and abandoned stripping.
  EXPECT_GT(failed, 10u);
  EXPECT_GT(no_rounds, 100u);
  EXPECT_GT(two_rounds, 100u);
  EXPECT_GT(pairs, 100u);
  EXPECT_GT(abandoned, 0u);
  EXPECT_GT(rank_gained, 1000u);
  EXPECT_EQ(Crc32(bytes), 0x5FCF2B84u);
}

TEST(CollisionListenerTest, StatsAccumulateAcrossEpisodes) {
  const phy::ChipCodebook codebook;
  Rng rng(977);
  CollisionListener listener(SmallSymbols());
  for (int i = 0; i < 3; ++i) {
    const BitVec a = RandomBody(rng, 24);
    CollisionEpisodeParams params;
    params.b_octets = 12;
    params.chip_error_p = 0.0;
    const auto episode = DrawCollisionEpisode(codebook, a, params, rng);
    listener.Resolve(codebook, episode);
  }
  EXPECT_EQ(listener.stats().episodes_seen, 3u);
  CollisionStats sum;
  sum += listener.stats();
  sum += listener.stats();
  EXPECT_EQ(sum.episodes_seen, 6u);
}

}  // namespace
}  // namespace ppr::collide
