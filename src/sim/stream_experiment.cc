#include "sim/stream_experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/parallel.h"
#include "common/rng.h"
#include "obs/obs.h"

namespace ppr::sim {

namespace {

// Pre-generated frame fates from a Gilbert-Elliott chain: fates[i] is
// true when the i-th frame on the air is erased. Stationary loss =
// loss_rate, mean erased burst = mean_burst_frames. Generating the
// fate sequence once per (loss, window) cell and sharing it across the
// controllers under comparison is common-random-numbers variance
// reduction: every controller faces the same channel realization, so
// an overhead or latency difference between them is the controllers'
// doing, not one of them drawing a luckier channel.
std::vector<std::uint8_t> MakeFrameFates(double loss_rate,
                                         double mean_burst_frames,
                                         std::size_t count, Rng& rng) {
  std::vector<std::uint8_t> fates(count, 0);
  if (loss_rate <= 0.0) return fates;
  if (loss_rate >= 1.0) {
    std::fill(fates.begin(), fates.end(), std::uint8_t{1});
    return fates;
  }
  if (mean_burst_frames < 1.0) mean_burst_frames = 1.0;
  const double p_bad_to_good = 1.0 / mean_burst_frames;
  const double p_good_to_bad =
      loss_rate * p_bad_to_good / (1.0 - loss_rate);
  bool bad = false;
  for (auto& fate : fates) {
    const double u = rng.UniformDouble();
    if (bad) {
      if (u < p_bad_to_good) bad = false;
    } else {
      if (u < p_good_to_bad) bad = true;
    }
    fate = bad ? 1 : 0;
  }
  return fates;
}

// Frame-level erasure channel over the BodyChannel interface: good
// frames decode verbatim, bad frames are corrupted (symbol bits XORed)
// so the receiver's CRC-32 rejects them — the same erasure surface a
// chip-level burst produces. The i-th frame transmitted consumes
// fates[i] (wrapping, deterministically, if the session somehow
// outruns the pre-generated sequence).
arq::BodyChannel MakeFrameErasureChannel(
    std::shared_ptr<const std::vector<std::uint8_t>> fates) {
  auto index = std::make_shared<std::size_t>(0);
  return [fates, index](const BitVec& bits) {
    const bool bad =
        !fates->empty() && (*fates)[(*index)++ % fates->size()] != 0;
    std::vector<phy::DecodedSymbol> symbols;
    symbols.reserve(bits.size() / 4);
    for (std::size_t i = 0; i + 4 <= bits.size(); i += 4) {
      phy::DecodedSymbol s;
      s.symbol = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
      if (bad) {
        s.symbol ^= 0xF;  // corrupted codeword: CRC will reject the frame
        s.hint = 1.0;
        s.hamming_distance = 16;
      }
      symbols.push_back(s);
    }
    return symbols;
  };
}

struct StreamJob {
  double loss_rate = 0.0;
  std::size_t window_size = 0;
  stream::ControllerKind controller = stream::ControllerKind::kFixedRate;
  std::shared_ptr<const std::vector<std::uint8_t>> fates;
};

StreamPointResult RunOnePoint(const StreamSweepConfig& config, StreamJob job,
                              obs::Snapshot* metrics) {
  // Everything this point runs records into a registry private to the
  // point; wall-clock timings are excluded so the snapshot depends only
  // on the point's deterministic work.
  obs::MetricRegistry registry;
  obs::ScopedObsContext obs_scope(&registry, /*tracer=*/nullptr,
                                  /*record_timings=*/false);

  stream::StreamSessionConfig session = config.session;
  session.window_capacity = job.window_size;

  const auto channel = MakeFrameErasureChannel(job.fates);
  const auto controller = stream::MakeController(job.controller);

  StreamPointResult point;
  point.loss_rate = job.loss_rate;
  point.window_size = job.window_size;
  point.controller = job.controller;
  point.stats = stream::RunStreamSession(session, *controller, channel);

  const auto& hist = point.stats.latency_us;
  point.p50_latency_us = hist.ValueAtQuantile(0.50);
  point.p95_latency_us = hist.ValueAtQuantile(0.95);
  point.p99_latency_us = hist.ValueAtQuantile(0.99);
  point.goodput_pps = point.stats.GoodputBps();
  point.repair_overhead = point.stats.RepairOverhead();

  if (metrics) *metrics = registry.TakeSnapshot();
  return point;
}

}  // namespace

const StreamPointResult* StreamExperimentResult::Find(
    double loss_rate, std::size_t window_size,
    stream::ControllerKind controller) const {
  for (const auto& p : points) {
    if (p.window_size == window_size && p.controller == controller &&
        std::abs(p.loss_rate - loss_rate) < 1e-12) {
      return &p;
    }
  }
  return nullptr;
}

StreamExperimentResult RunStreamRecoveryExperiment(
    const StreamSweepConfig& config) {
  // Serial pass: enumerate the sweep grid in a fixed order. Each
  // (loss, window) cell pre-generates one frame-fate sequence from a
  // fork of the root Rng, shared by every controller in the cell —
  // paired comparisons on an identical channel realization, identical
  // at any thread count.
  std::vector<StreamJob> jobs;
  // Frames on the air per session: every source packet once, repairs
  // at well under one per source packet for any sane controller, plus
  // the closing flush. 4x + slack never wraps in practice.
  const std::size_t fate_count = 4 * config.session.total_packets + 1024;
  for (const double loss : config.loss_rates) {
    for (const std::size_t window : config.window_sizes) {
      // Seed each cell from (sweep seed, loss, window) rather than from
      // enumeration order, so a cell's channel realization does not
      // depend on which other cells the sweep happens to include — the
      // smoke sweep and the full sweep see byte-identical channels at
      // their shared points.
      const std::uint64_t cell_salt =
          static_cast<std::uint64_t>(window) * 0x9E3779B97F4A7C15ULL ^
          static_cast<std::uint64_t>(loss * 1e6) * 0xC2B2AE3D27D4EB4FULL;
      Rng cell_rng(config.seed ^ cell_salt);
      auto fates = std::make_shared<const std::vector<std::uint8_t>>(
          MakeFrameFates(loss, config.mean_burst_frames, fate_count,
                         cell_rng));
      for (const auto controller : config.controllers) {
        StreamJob job;
        job.loss_rate = loss;
        job.window_size = window;
        job.controller = controller;
        job.fates = fates;
        jobs.push_back(job);
      }
    }
  }

  // Parallel pass: points are independent and write disjoint slots.
  std::vector<StreamPointResult> points(jobs.size());
  std::vector<obs::Snapshot> point_metrics(jobs.size());
  ParallelFor(jobs.size(), config.num_threads, [&](std::size_t j) {
    points[j] = RunOnePoint(config, jobs[j], &point_metrics[j]);
  });

  StreamExperimentResult result;
  result.points = std::move(points);
  // Merge per-point snapshots in grid order — independent of which
  // worker ran which point.
  for (const auto& snap : point_metrics) result.metrics.Merge(snap);
  return result;
}

}  // namespace ppr::sim
