// StreamSession: one live flow, source and destination, over a
// BodyChannel transport — the streaming counterpart of
// arq::RunRecoveryExchangeSession's discrete per-packet rounds.
//
// The session runs a deterministic virtual-time event loop
// (microsecond clock): source packets arrive on a fixed cadence, every
// forward frame pays its airtime (wire bits / link rate) on a FIFO
// link plus a propagation delay, the destination batches cumulative
// acknowledgments on a feedback interval, and the redundancy
// controller is consulted after each source send, on each feedback,
// and on a periodic tick. Repair frames are seeded RLNC combinations
// over the live window (stream/window.h): rateless, so any repair helps
// any loss it spans. Forward frames cross the (lossy) BodyChannel and
// are erased when their CRC-32 fails; feedback is modeled reliable per
// the repo convention (short frames, forward-link evaluation), but its
// bits and latency are charged. Once the last source packet has entered
// the window, every feedback's deficit is flushed with repair whatever
// the controller, so every policy pays the same tail-closing cost and
// comparisons isolate steady-state behavior.
//
// Determinism: all randomness comes from the caller's channel and the
// config seed, timestamps are virtual, and metrics land both in the
// (optional) ambient obs context and in the returned
// StreamSessionStats histograms — the latter exist even under
// PPR_OBS_OFF, so the sim sweep's percentile reports never depend on
// wall clock or thread schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arq/link_sim.h"
#include "obs/metrics.h"
#include "stream/redundancy.h"
#include "stream/stream_ids.h"

namespace ppr::stream {

struct StreamSessionConfig {
  std::size_t window_capacity = 32;
  std::size_t symbol_bytes = 32;  // source payload per symbol
  std::size_t total_packets = 400;

  // Virtual-time cadences, microseconds.
  std::uint64_t packet_interval_us = 1'000;
  std::uint64_t feedback_interval_us = 8'000;
  std::uint64_t tick_interval_us = 2'000;
  std::uint64_t propagation_us = 500;   // one-way delay, either direction
  double link_rate_bps = 2'000'000.0;   // forward-link serialization rate

  // Hard stop: a session that cannot finish by then reports what it has
  // (undelivered packets counted, never silently dropped).
  std::uint64_t max_duration_us = 60'000'000;

  // Deterministic payload generator seed (payloads are a pure function
  // of (seed, symbol id); the destination verifies every delivery).
  std::uint64_t payload_seed = 0x5EED;
};

struct StreamSessionStats {
  // Frames on the air, forward direction.
  std::size_t source_sent = 0;
  std::size_t repair_sent = 0;
  std::size_t source_frames_lost = 0;  // CRC-failed at the destination
  std::size_t repair_frames_lost = 0;
  std::uint64_t source_bits = 0;
  std::uint64_t repair_bits = 0;
  std::uint64_t feedback_bits = 0;
  std::size_t feedback_frames = 0;

  // Delivery.
  std::size_t delivered = 0;
  std::size_t recovered = 0;  // delivered via repair decoding
  std::size_t undelivered = 0;
  std::size_t payload_mismatches = 0;  // delivered data != sent data
  std::size_t backpressure_stalls = 0;
  std::size_t decoder_stale_dropped = 0;
  std::size_t decoder_overflow_dropped = 0;
  std::size_t ambiguous_id_dropped = 0;

  std::uint64_t finished_at_us = 0;

  // Per-delivered-packet latency (send -> in-order release), and the
  // recovered-only subset. Log2-bucket snapshots: report percentiles
  // via ValueAtQuantile.
  obs::HistogramSnapshot latency_us;
  obs::HistogramSnapshot recovered_latency_us;

  // repair_bits / source_bits — the stream's repair overhead.
  double RepairOverhead() const {
    return source_bits == 0
               ? 0.0
               : static_cast<double>(repair_bits) /
                     static_cast<double>(source_bits);
  }
  // Delivered payload bits per second of virtual time.
  double GoodputBps() const {
    return finished_at_us == 0
               ? 0.0
               : static_cast<double>(delivered) * 1e6 /
                     static_cast<double>(finished_at_us);
  }
};

// Runs the whole flow to completion (or max_duration_us). The
// controller is consumed statefully; pass a fresh instance per run.
StreamSessionStats RunStreamSession(const StreamSessionConfig& config,
                                    RedundancyController& controller,
                                    const arq::BodyChannel& channel);

// The deterministic payload for symbol `id` — what the source sends
// and the destination checks against.
std::vector<std::uint8_t> StreamPayloadForId(std::uint64_t payload_seed,
                                             SymbolId id,
                                             std::size_t symbol_bytes);

}  // namespace ppr::stream
