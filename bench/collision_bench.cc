// Collision-recovery yield benchmark (src/collide/): at three
// contention levels, every collision episode is run twice over
// identically seeded draws — once with the resolver on (stripping +
// algebraic banking) and once as today's discard baseline — so any
// repair-bit difference is pure collision-recovery yield.
//
// Headline numbers, both gated (nonzero exit on failure):
//
//   * repair bits saved — at every contention level with episodes, the
//     resolve leg must deliver at least as many packets as discard
//     while spending strictly fewer repair bits.
//
//   * resolved-rank fraction — rank the banked equations contributed
//     before any repair symbol crossed the air, as a fraction of the
//     block's total rank across episodes. At the highest contention
//     level at least one pair must fully resolve by stripping and the
//     banked equations must have raised rank at all.
//
// Usage:
//   collision_bench                  full run, human summary
//   collision_bench --smoke          reduced packet counts (CI smoke)
//   collision_bench --json <path>    also write a flat JSON report
//                                    (kernel=CollisionRecovery records,
//                                    merged into the regression gate
//                                    via --extra-current)
//   collision_bench --seed N         reseed every stream
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "arq/chip_medium.h"
#include "arq/link_sim.h"
#include "arq/pp_arq.h"
#include "arq/recovery_strategy.h"
#include "bench_util.h"
#include "collide/capture.h"
#include "collide/listener.h"
#include "collide/runner.h"
#include "common/bitvec.h"
#include "common/rng.h"
#include "phy/chip_sequences.h"

namespace {

struct BenchShape {
  std::size_t packets_per_level = 40;
  std::size_t payload_octets = 60;
  std::size_t codewords_per_fec_symbol = 4;
  double chip_error_p = 0.002;
  std::uint64_t seed = 1;
};

struct LegResult {
  std::size_t episodes = 0;
  std::size_t completed = 0;
  std::size_t repair_bits = 0;
  std::size_t rank_gained = 0;
  std::size_t pairs_resolved = 0;
};

struct LevelResult {
  int contention_percent = 0;
  std::size_t packets = 0;
  std::size_t num_symbols = 0;
  LegResult resolve;
  LegResult discard;

  double ResolvedRankFraction() const {
    const std::size_t denom = resolve.episodes * num_symbols;
    return denom == 0 ? 0.0
                      : static_cast<double>(resolve.rank_gained) /
                            static_cast<double>(denom);
  }
  double RepairBitsSavedPerEpisode() const {
    if (resolve.episodes == 0 || resolve.repair_bits >= discard.repair_bits) {
      return 0.0;
    }
    return static_cast<double>(discard.repair_bits - resolve.repair_bits) /
           static_cast<double>(resolve.episodes);
  }
};

LevelResult RunLevel(const BenchShape& shape, double contention) {
  ppr::arq::PpArqConfig config;
  config.recovery = ppr::arq::RecoveryMode::kCollisionResolve;
  config.codewords_per_fec_symbol = shape.codewords_per_fec_symbol;
  const auto strategy = ppr::arq::MakeRecoveryStrategy(config);
  const ppr::phy::ChipCodebook codebook;

  ppr::collide::CollisionEpisodeParams params;
  params.b_octets = shape.payload_octets;
  params.chip_error_p = shape.chip_error_p;
  ppr::collide::CollisionListenerConfig listener_config;
  listener_config.codewords_per_fec_symbol = shape.codewords_per_fec_symbol;

  LevelResult level;
  level.contention_percent = static_cast<int>(contention * 100.0 + 0.5);
  level.packets = shape.packets_per_level;
  const std::size_t body_codewords = (shape.payload_octets * 8 + 32) / 4;
  level.num_symbols = body_codewords / shape.codewords_per_fec_symbol;

  for (std::size_t p = 0; p < shape.packets_per_level; ++p) {
    ppr::Rng payload_rng(
        ppr::arq::SeedForTransmission(shape.seed, /*sender=*/1, p));
    ppr::BitVec payload;
    for (std::size_t i = 0; i < shape.payload_octets; ++i) {
      payload.AppendUint(payload_rng.UniformInt(256), 8);
    }
    const std::uint64_t round_seed =
        ppr::arq::SeedForCollisionRound(shape.seed, /*tx_a=*/1, p);
    {
      ppr::Rng gate(round_seed);
      if (!gate.Bernoulli(contention)) continue;  // no collision: the
      // packet costs both legs the same and is left out of the yield.
    }
    for (const bool resolve : {true, false}) {
      ppr::Rng episode_rng(round_seed);
      episode_rng.Bernoulli(contention);  // replay the gate draw
      ppr::Rng channel_rng(
          ppr::arq::SeedForCollisionRound(shape.seed, /*tx_a=*/2, p));
      const auto channel = ppr::arq::MakeChipErrorChannel(
          codebook, shape.chip_error_p, channel_rng);
      const auto outcome = ppr::collide::RunCollisionRecoveryExchange(
          payload, config, *strategy, channel, params, episode_rng,
          listener_config, resolve);
      LegResult& leg = resolve ? level.resolve : level.discard;
      ++leg.episodes;
      leg.completed += outcome.stats.totals.success;
      for (const auto bits : outcome.stats.totals.retransmission_bits) {
        leg.repair_bits += bits;
      }
      leg.rank_gained += outcome.rank_gained;
      leg.pairs_resolved += outcome.resolved_pair;
    }
  }
  return level;
}

int Gate(const std::vector<LevelResult>& levels) {
  int failures = 0;
  for (const auto& level : levels) {
    if (level.resolve.episodes == 0) {
      std::fprintf(stderr, "gate: k=%d saw no episodes; skipped\n",
                   level.contention_percent);
      continue;
    }
    if (level.resolve.completed < level.discard.completed) {
      std::fprintf(stderr,
                   "FAIL: k=%d resolve delivered %zu < discard %zu\n",
                   level.contention_percent, level.resolve.completed,
                   level.discard.completed);
      ++failures;
    }
    if (level.resolve.repair_bits >= level.discard.repair_bits) {
      std::fprintf(stderr,
                   "FAIL: k=%d resolve repair bits %zu >= discard %zu\n",
                   level.contention_percent, level.resolve.repair_bits,
                   level.discard.repair_bits);
      ++failures;
    }
  }
  const auto& top = levels.back();
  if (top.resolve.pairs_resolved == 0) {
    std::fprintf(stderr, "FAIL: no double collision fully resolved at "
                         "the highest contention level\n");
    ++failures;
  }
  if (top.resolve.rank_gained == 0) {
    std::fprintf(stderr, "FAIL: banked equations raised no rank at the "
                         "highest contention level\n");
    ++failures;
  }
  if (failures == 0) std::fprintf(stderr, "gate passed\n");
  return failures == 0 ? 0 : 1;
}

int WriteReport(const std::vector<LevelResult>& levels,
                const std::string& path) {
  std::vector<ppr::bench::JsonRecord> records;
  for (const auto& level : levels) {
    const auto leg_record = [&](const char* impl, const LegResult& leg) {
      return ppr::bench::JsonRecord{
          {"kernel", std::string("CollisionRecovery")},
          {"impl", std::string(impl)},
          {"k", static_cast<std::int64_t>(level.contention_percent)},
          {"packets", static_cast<std::int64_t>(level.packets)},
          {"episodes", static_cast<std::int64_t>(leg.episodes)},
          {"completed", static_cast<std::int64_t>(leg.completed)},
          {"repair_bits", static_cast<std::int64_t>(leg.repair_bits)},
          {"rank_gained", static_cast<std::int64_t>(leg.rank_gained)},
          {"pairs_resolved",
           static_cast<std::int64_t>(leg.pairs_resolved)},
          {"resolved_rank_fraction", level.ResolvedRankFraction()}};
    };
    records.push_back(leg_record("resolve", level.resolve));
    records.push_back(leg_record("discard", level.discard));
  }
  const ppr::bench::JsonRecord header = {
      {"bench", std::string("collision_bench")}};
  if (!ppr::bench::WriteJsonReport(path, header, "results", records)) {
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchShape shape;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      shape.packets_per_level = 6;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      shape.seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json PATH] [--seed N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<LevelResult> levels;
  for (const double contention : {0.3, 0.6, 0.9}) {
    levels.push_back(RunLevel(shape, contention));
  }

  std::printf("# collision_bench: %zu packets/level, %zu-octet payload, "
              "chip_error_p=%g\n",
              shape.packets_per_level, shape.payload_octets,
              shape.chip_error_p);
  std::printf("%-4s %-9s %-9s %-14s %-14s %-10s %-12s\n", "k%", "episodes",
              "resolved", "resolve_bits", "discard_bits", "saved/ep",
              "rank_frac");
  for (const auto& level : levels) {
    std::printf("%-4d %-9zu %-9zu %-14zu %-14zu %-10.0f %-12.3f\n",
                level.contention_percent, level.resolve.episodes,
                level.resolve.pairs_resolved, level.resolve.repair_bits,
                level.discard.repair_bits, level.RepairBitsSavedPerEpisode(),
                level.ResolvedRankFraction());
  }

  int rc = Gate(levels);
  if (!json_path.empty()) rc = WriteReport(levels, json_path) ? 1 : rc;
  return rc;
}
