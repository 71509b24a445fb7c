#include "sim/topology.h"

#include <algorithm>
#include <cassert>

namespace ppr::sim {

std::vector<std::size_t> OverhearingRelays(const RadioMedium& medium,
                                           std::size_t sender,
                                           std::size_t receiver,
                                           double min_snr_db) {
  struct Candidate {
    std::size_t node;
    double bottleneck_snr_db;
  };
  std::vector<Candidate> candidates;
  for (std::size_t node = 0; node < medium.NumNodes(); ++node) {
    if (node == sender || node == receiver) continue;
    const double overhear = medium.LinkSnrDb(sender, node);
    const double reach = medium.LinkSnrDb(node, receiver);
    const double bottleneck = std::min(overhear, reach);
    if (bottleneck < min_snr_db) continue;
    candidates.push_back({node, bottleneck});
  }
  // Bottleneck-SNR ties break toward the lower node id explicitly (not
  // just by sort stability), so roster order is a pure function of the
  // medium and can never drift with how callers shard or reorder their
  // sweeps.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.bottleneck_snr_db != b.bottleneck_snr_db) {
                return a.bottleneck_snr_db > b.bottleneck_snr_db;
              }
              return a.node < b.node;
            });
  std::vector<std::size_t> out;
  out.reserve(candidates.size());
  for (const auto& c : candidates) out.push_back(c.node);
  return out;
}

const std::vector<std::size_t>& OverhearingRelayCache::Get(
    std::size_t sender, std::size_t receiver, double min_snr_db) {
  const auto key = std::make_tuple(sender, receiver, min_snr_db);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  return cache_
      .emplace(key, OverhearingRelays(*medium_, sender, receiver, min_snr_db))
      .first->second;
}

std::size_t OverhearingRelayCache::hits() const { return hits_; }

std::size_t OverhearingRelayCache::misses() const { return misses_; }

TestbedTopology::TestbedTopology(const TestbedConfig& config)
    : config_(config) {
  Rng rng(config_.seed);
  positions_.reserve(NumNodes());

  // Senders: round-robin across the nine rooms (3x3 grid), uniformly
  // placed within each room with a small margin from the walls.
  const int grid = 3;
  const double room_w = config_.floor_width_m / grid;
  const double room_h = config_.floor_height_m / grid;
  const double margin = 0.5;
  for (std::size_t i = 0; i < config_.num_senders; ++i) {
    const int room = static_cast<int>(i % 9);
    const int rx_cell = room % grid;
    const int ry_cell = room / grid;
    Point p;
    p.x = rx_cell * room_w + rng.UniformDouble(margin, room_w - margin);
    p.y = ry_cell * room_h + rng.UniformDouble(margin, room_h - margin);
    positions_.push_back(p);
  }

  // Receivers: spread along the floor's long axis at staggered heights,
  // mirroring Figure 7's R1..R4 placement among the senders.
  assert(config_.num_receivers >= 1);
  for (std::size_t i = 0; i < config_.num_receivers; ++i) {
    Point p;
    const double frac = (static_cast<double>(i) + 0.5) /
                        static_cast<double>(config_.num_receivers);
    p.x = frac * config_.floor_width_m;
    p.y = (i % 2 == 0) ? config_.floor_height_m * 0.3
                       : config_.floor_height_m * 0.7;
    positions_.push_back(p);
  }
}

MediumConfig IndoorMediumConfig(const TestbedConfig& testbed,
                                std::uint64_t seed) {
  MediumConfig config;
  config.seed = seed;
  const double w = testbed.floor_width_m;
  const double h = testbed.floor_height_m;
  config.wall_xs = {w / 3.0, 2.0 * w / 3.0};
  config.wall_ys = {h / 3.0, 2.0 * h / 3.0};
  config.wall_loss_db = 7.0;
  // Lossy indoor propagation (cluttered office at 2.4 GHz) plus a
  // modest-sensitivity software-radio receiver: calibrated so a sink
  // hears roughly 4-8 of the 23 senders with the best links near
  // perfect and many marginal, as the paper reports.
  config.reference_loss_db = 52.0;
  config.path_loss_exponent = 3.3;
  config.noise_floor_dbm = -88.0;
  return config;
}

std::size_t TestbedTopology::SenderId(std::size_t i) const {
  assert(i < config_.num_senders);
  return i;
}

std::size_t TestbedTopology::ReceiverId(std::size_t i) const {
  assert(i < config_.num_receivers);
  return config_.num_senders + i;
}

bool TestbedTopology::IsReceiver(std::size_t node) const {
  return node >= config_.num_senders && node < NumNodes();
}

}  // namespace ppr::sim
