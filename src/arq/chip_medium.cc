#include "arq/chip_medium.h"

#include <stdexcept>

#include "obs/obs.h"

namespace ppr::arq {
namespace {

// SplitMix64 finalizer: the standard 64-bit avalanche mix, used to
// derive statistically independent seeds from structured inputs.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Domain separator for SeedForCollisionRound. SeedForTransmission
// chains start from Mix64(medium_seed); salting the medium seed first
// puts collision chains in a different orbit of the same mix, so the
// two families cannot alias for any (sender, tx) / (tx_a, tx_b) pair.
constexpr std::uint64_t kCollisionSeedSalt = 0xC011D0D0C011D0D0ULL;

}  // namespace

std::uint64_t SeedForTransmission(std::uint64_t medium_seed,
                                  std::size_t sender,
                                  std::uint64_t tx_index) {
  std::uint64_t s = Mix64(medium_seed);
  s = Mix64(s ^ static_cast<std::uint64_t>(sender));
  return Mix64(s ^ tx_index);
}

std::uint64_t SeedForCollisionRound(std::uint64_t medium_seed,
                                    std::uint64_t tx_a, std::uint64_t tx_b) {
  std::uint64_t s = Mix64(medium_seed ^ kCollisionSeedSalt);
  s = Mix64(s ^ tx_a);
  return Mix64(s ^ tx_b);
}

double OverhearLossGivenDirectLoss(const ListenerLossStats& stats) {
  if (stats.reference_corrupted_frames == 0) return 0.0;
  return static_cast<double>(stats.joint_corrupted_frames) /
         static_cast<double>(stats.reference_corrupted_frames);
}

double OverhearLossGivenDirectLoss(const SharedMediumStats& stats) {
  if (stats.reference_corrupted_frames == 0) return 0.0;
  return static_cast<double>(stats.joint_corrupted_frames) /
         static_cast<double>(stats.reference_corrupted_frames);
}

void AccumulateJointLossStats(const std::vector<ReceptionLossFlags>& receptions,
                              const std::vector<ListenerLossStats*>& listeners,
                              SharedMediumStats& medium) {
  const bool ref_collided = receptions.front().collided;
  const bool ref_corrupted = receptions.front().corrupted;
  ++medium.broadcast_frames;
  if (ref_collided) ++medium.reference_collision_frames;
  if (ref_corrupted) ++medium.reference_corrupted_frames;
  if (ref_collided && !ref_corrupted) {
    ++medium.reference_collided_recovered_frames;
  }
  bool other_collided = false;
  bool other_corrupted = false;
  for (std::size_t i = 0; i < listeners.size(); ++i) {
    auto& s = *listeners[i];
    ++s.broadcast_frames;
    if (receptions[i].collided) ++s.collision_frames;
    if (receptions[i].corrupted) ++s.corrupted_frames;
    if (receptions[i].collided && !receptions[i].corrupted) {
      ++s.collided_recovered_frames;
    }
    if (ref_collided && receptions[i].collided) ++s.joint_collision_frames;
    if (ref_corrupted) {
      ++s.reference_corrupted_frames;
      if (receptions[i].corrupted) ++s.joint_corrupted_frames;
    }
    if (i > 0 && receptions[i].collided) other_collided = true;
    if (i > 0 && receptions[i].corrupted) other_corrupted = true;
  }
  if (ref_collided && other_collided) ++medium.joint_collision_frames;
  if (ref_corrupted && other_corrupted) ++medium.joint_corrupted_frames;
  obs::Count("medium.broadcasts");
  if (ref_collided) obs::Count("medium.ref_collisions");
  if (ref_collided && !ref_corrupted) {
    obs::Count("medium.ref_collisions_recovered");
  }
  if (ref_corrupted) obs::Count("medium.ref_losses");
  if (ref_collided && other_collided) obs::Count("medium.joint_collisions");
  if (ref_corrupted && other_corrupted) {
    obs::Count("medium.joint_losses");
    obs::TraceInstant("medium.joint_loss", "medium", [&] {
      return obs::TraceArgs{
          {"listeners", static_cast<std::int64_t>(listeners.size())}};
    });
  } else if (ref_collided) {
    obs::TraceInstant("medium.collision", "medium", [&] {
      return obs::TraceArgs{
          {"joint", (ref_collided && other_collided) ? 1 : 0},
          {"listeners", static_cast<std::int64_t>(listeners.size())}};
    });
  }
}

ChipMedium::ChipMedium(const phy::ChipCodebook& codebook,
                       CollisionCorrelation correlation,
                       std::uint64_t medium_seed,
                       const GilbertElliottParams& process,
                       std::size_t sender)
    : codebook_(codebook),
      correlation_(correlation),
      medium_seed_(medium_seed),
      process_(process),
      sender_(sender) {}

std::shared_ptr<ChipMedium> ChipMedium::Create(
    const phy::ChipCodebook& codebook, CollisionCorrelation correlation,
    std::uint64_t medium_seed, const GilbertElliottParams& process,
    std::size_t sender) {
  return std::shared_ptr<ChipMedium>(new ChipMedium(
      codebook, correlation, medium_seed, process, sender));
}

std::size_t ChipMedium::AddListener(const GilbertElliottParams& params,
                                    Rng rng) {
  listeners_.push_back(Listener{params, rng, false, {}});
  return listeners_.size() - 1;
}

ChipMedium::Reception ChipMedium::ReceiveAt(
    Listener& listener, const BitVec& bits,
    const std::vector<bool>& shared_states, std::uint64_t tx_seed,
    std::size_t listener_index) {
  if (bits.size() % 4 != 0) {
    throw std::invalid_argument("ChipMedium: bits not a multiple of 4");
  }
  Reception r;
  r.symbols.reserve(bits.size() / 4);
  const phy::ChipErrorRate good(listener.params.chip_error_good);
  const phy::ChipErrorRate bad(listener.params.chip_error_bad);
  if (correlation_ == CollisionCorrelation::kIndependent) {
    // The legacy Gilbert-Elliott channel, draw for draw, from this
    // listener's persistent Rng and Markov state.
    for (std::size_t i = 0; i < bits.size(); i += 4) {
      if (listener.in_bad) {
        if (listener.rng.Bernoulli(listener.params.p_bad_to_good)) {
          listener.in_bad = false;
        }
      } else {
        if (listener.rng.Bernoulli(listener.params.p_good_to_bad)) {
          listener.in_bad = true;
        }
      }
      if (listener.in_bad) r.collided = true;
      const auto nibble = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
      r.symbols.push_back(ChipTransmitNibble(
          codebook_, nibble, listener.in_bad ? bad : good, listener.rng));
      if (r.symbols.back().symbol != nibble) r.corrupted = true;
    }
    return r;
  }
  // kSharedInterferer: the timeline is the shared draw; only the chip
  // flips are this listener's own, from a per-(transmission, listener)
  // derived stream so no roster or schedule can reorder them.
  Rng flips(SeedForTransmission(tx_seed, listener_index + 1, 0));
  for (std::size_t i = 0; i < bits.size(); i += 4) {
    const bool in_bad = shared_states[i / 4];
    if (in_bad) r.collided = true;
    const auto nibble = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
    r.symbols.push_back(
        ChipTransmitNibble(codebook_, nibble, in_bad ? bad : good, flips));
    if (r.symbols.back().symbol != nibble) r.corrupted = true;
  }
  return r;
}

// One interferer timeline per transmission: the burst either overlaps
// this transmission or not, identically for every listener. Each
// transmission starts interference-free.
std::vector<bool> ChipMedium::DrawTimeline(std::size_t codewords,
                                           std::uint64_t tx_seed) const {
  Rng process_rng(tx_seed);
  std::vector<bool> states(codewords);
  bool bad = false;
  for (std::size_t k = 0; k < states.size(); ++k) {
    if (bad) {
      if (process_rng.Bernoulli(process_.p_bad_to_good)) bad = false;
    } else {
      if (process_rng.Bernoulli(process_.p_good_to_bad)) bad = true;
    }
    states[k] = bad;
  }
  return states;
}

std::vector<std::vector<phy::DecodedSymbol>> ChipMedium::Broadcast(
    const BitVec& bits) {
  if (listeners_.empty()) {
    throw std::logic_error("ChipMedium: broadcast with no listeners");
  }
  ++tx_index_;
  obs::Count("medium.chip.transmissions");
  obs::Count("medium.chip.transmitted_bits", bits.size());
  std::vector<bool> shared_states;
  std::uint64_t tx_seed = 0;
  if (correlation_ == CollisionCorrelation::kSharedInterferer) {
    tx_seed = SeedForTransmission(medium_seed_, sender_, tx_index_);
    shared_states = DrawTimeline(bits.size() / 4, tx_seed);
  }

  std::vector<Reception> receptions;
  receptions.reserve(listeners_.size());
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    receptions.push_back(
        ReceiveAt(listeners_[i], bits, shared_states, tx_seed, i));
  }

  std::vector<ReceptionLossFlags> flags;
  std::vector<ListenerLossStats*> stats;
  flags.reserve(receptions.size());
  stats.reserve(listeners_.size());
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    flags.push_back({receptions[i].collided, receptions[i].corrupted});
    stats.push_back(&listeners_[i].stats);
  }
  AccumulateJointLossStats(flags, stats, medium_stats_);

  std::vector<std::vector<phy::DecodedSymbol>> out;
  out.reserve(receptions.size());
  for (auto& r : receptions) out.push_back(std::move(r.symbols));
  return out;
}

BroadcastBodyChannel ChipMedium::MakeBroadcastChannel() {
  auto self = shared_from_this();
  return [self](const BitVec& bits) { return self->Broadcast(bits); };
}

BodyChannel ChipMedium::MakeUnicastChannel(std::size_t listener) {
  if (listener >= listeners_.size()) {
    throw std::invalid_argument("ChipMedium: no such listener");
  }
  auto self = shared_from_this();
  return [self, listener](const BitVec& bits) {
    ++self->tx_index_;
    obs::Count("medium.chip.transmissions");
    obs::Count("medium.chip.transmitted_bits", bits.size());
    std::vector<bool> shared_states;
    std::uint64_t tx_seed = 0;
    if (self->correlation_ == CollisionCorrelation::kSharedInterferer) {
      tx_seed = SeedForTransmission(self->medium_seed_, self->sender_,
                                    self->tx_index_);
      shared_states = self->DrawTimeline(bits.size() / 4, tx_seed);
    }
    return self
        ->ReceiveAt(self->listeners_[listener], bits, shared_states, tx_seed,
                    listener)
        .symbols;
  };
}

const ListenerLossStats& ChipMedium::StatsFor(std::size_t listener) const {
  return listeners_.at(listener).stats;
}

}  // namespace ppr::arq
