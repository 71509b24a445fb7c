// pipeline_bench: one self-timed benchmark for the PPR packet path, end
// to end and layer by layer.
//
// Usage:
//   pipeline_bench --workload <name> --seed <n> --seconds <s>
//                  [--trace <spans.json>] [--json <report.json>]
//
// Every workload is a closed-loop, single-client batch of seeded
// operations ("ops") on one thread; library thread pools are pinned to
// one thread. Op 0 is an untimed warm-up that still goes through the
// correctness checks; ops 1.. run until --seconds have passed (and at
// least kMinOps of them). The bench generates every input from --seed
// and the library only receives them.
//
// Without --trace the run reports the end-to-end metrics, measured with
// no obs context installed:
//   setup_s       median wall time of the workload's library set-up
//                 calls, over bursts of repetitions spread across the run
//   peak_rss_mb   the process's peak resident set (MiB)
//   rtf           802.15.4 air time handled per wall second
//                 (2 Mchip/s = 250 kbit/s; 8 Msample/s at 4 samples/chip)
//   packets_per_s packets delivered per wall second
// With --trace the run instead reports the per-layer metrics. First the
// stage ladder (see "the ladder" below) re-runs the first ops of every
// workload with a span around each call into a layer's public
// functions; the per-layer metrics come from its spans alone. Then the
// workload's ops run on two instances in lockstep: one untraced, one
// with a span around every layer call the op makes and a metrics
// context installed. The median over ops of each op's traced wall over
// its untraced wall is obs.trace_overhead. Spans are kept in
// memory and written at exit as a Chrome trace (the sorted-key schema
// bench/validate_trace.py checks).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when a correctness check failed.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "arq/feedback.h"
#include "arq/link_sim.h"
#include "arq/pp_arq.h"
#include "arq/recovery_session.h"
#include "arq/recovery_strategy.h"
#include "bench_util.h"
#include "common/bitvec.h"
#include "common/crc.h"
#include "common/rng.h"
#include "engine/flow_engine.h"
#include "fec/gf256.h"
#include "fec/reed_solomon.h"
#include "fec/rlnc.h"
#include "frame/frame_format.h"
#include "obs/obs.h"
#include "phy/channel.h"
#include "phy/chip_sequences.h"
#include "phy/despreader.h"
#include "phy/frame_sync.h"
#include "phy/msk_modem.h"
#include "phy/spreader.h"
#include "ppr/link.h"
#include "ppr/receiver_pipeline.h"
#include "sim/experiment.h"
#include "sim/stream_experiment.h"
#include "softphy/classifier.h"
#include "softphy/runlength.h"

#ifndef PPR_BENCH_BUILD_TYPE
#define PPR_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ppr;
using Clock = std::chrono::steady_clock;

constexpr int kSetupSamples = 21;  // timed set-ups per burst
constexpr auto kSetupBurstPeriod = std::chrono::seconds(1);
constexpr std::uint64_t kMinOps = 3;  // measured ops, on top of op 0
// The digest covers ops [0, kDigestOps), which every run executes, so
// two runs of one seed must agree on it whatever their length.
constexpr std::uint64_t kDigestOps = kMinOps + 1;
constexpr double kChipRate = 2'000'000.0;  // 802.15.4 chips/s
constexpr double kAirBitRate = 250'000.0;  // 8 chips per data bit
constexpr std::size_t kPacketOctets = 250;  // the paper's section 7.5 packet

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Independent input streams per (seed, purpose, op index).
std::uint64_t OpSeed(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  return Mix(Mix(seed ^ Mix(stream)) + index);
}

std::vector<std::uint8_t> RandomOctets(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------- spans
struct SpanStat {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
  double SelfSeconds() const { return static_cast<double>(self_ns) * 1e-9; }
};
using SpanStats = std::map<std::string, SpanStat>;

// Span recorder for the traced run. A span wraps one call from bench
// code into a layer's public function; its parent is the enclosing span
// and its trace id is inherited from the root (the op index). Spans are
// Chrome 'X' events in an obs::Tracer held in memory until exit, with
// args {parent, span, trace}; per-name call counts and self times (the
// span minus the time its children cover) feed the per-layer metrics.
class SpanRecorder {
 public:
  void Begin(std::string_view name, std::int64_t trace) {
    Open open;
    open.id = ++last_id_;
    open.parent = stack_.empty() ? 0 : stack_.back().id;
    open.trace = trace >= 0 || stack_.empty() ? trace : stack_.back().trace;
    open.name = name;
    open.start_ns = obs::NowNs();
    stack_.push_back(std::move(open));
  }

  void End() {
    const std::uint64_t end_ns = obs::NowNs();
    Open open = std::move(stack_.back());
    stack_.pop_back();
    const std::uint64_t dur = end_ns - open.start_ns;
    SpanStat& stat = stats_[open.name];
    ++stat.calls;
    stat.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    const std::string category = open.name.substr(0, open.name.find('.'));
    tracer_.Complete(std::move(open.name), category, open.start_ns, dur,
                     {{"parent", static_cast<std::int64_t>(open.parent)},
                      {"span", static_cast<std::int64_t>(open.id)},
                      {"trace", open.trace}});
  }

  // The per-name stats recorded so far; later spans start from zero,
  // even where they reuse a name.
  SpanStats TakeStats() { return std::exchange(stats_, {}); }

  const obs::Tracer& tracer() const { return tracer_; }

 private:
  struct Open {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t trace = -1;
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
  };

  obs::Tracer tracer_{1 << 18};
  std::vector<Open> stack_;
  std::uint64_t last_id_ = 0;
  SpanStats stats_;
};

// RAII span; a no-op when `recorder` is null (the untraced runs).
// `trace` >= 0 starts a new trace (an op); -1 inherits the parent's.
class Span {
 public:
  Span(SpanRecorder* recorder, std::string_view name, std::int64_t trace = -1)
      : recorder_(recorder) {
    if (recorder_) recorder_->Begin(name, trace);
  }
  ~Span() {
    if (recorder_) recorder_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

// ------------------------------------------------------------ workloads

struct OpOutcome {
  std::uint64_t packets = 0;  // packets delivered (the workload's unit)
  double air_s = 0.0;         // air time the op handled
  bool ok = true;             // the op's own correctness checks passed
  std::vector<std::uint64_t> facts;  // per-op outcomes for the digest
};

class Workload {
 public:
  virtual ~Workload() = default;
  // The library set-up calls, timed as setup_s. Two instances of one
  // workload and seed, each set up once, run identical ops.
  virtual void Setup() = 0;
  virtual OpOutcome RunOp(std::uint64_t index, SpanRecorder* spans) = 0;
  // Checks over every op run so far; on failure sets `why`.
  virtual bool CheckRun(std::string* why) const = 0;
};

// The payload of waveform_link's op `index`; the ladder's captures
// carry the same payloads.
std::vector<std::uint8_t> LinkPayload(std::uint64_t seed, std::uint64_t index) {
  return RandomOctets(OpSeed(seed, 1, index), kPacketOctets);
}

double FrameAirSeconds(std::size_t body_bits) {
  const frame::FrameLayout layout((body_bits + 7) / 8);
  return static_cast<double>(layout.TotalChips()) / kChipRate;
}

// waveform_link's channel: 4 samples/chip, Ec/N0 5 dB, and a 60-octet
// burst at +3 dB colliding with half the frames.
core::WaveformChannelParams LinkParams(std::uint64_t seed) {
  core::WaveformChannelParams params;
  params.pipeline.modem.samples_per_chip = 4;
  params.pipeline.max_payload_octets = 400;
  params.ec_n0_db = 5.0;
  params.collision_probability = 0.5;
  params.interferer_relative_db = 3.0;
  params.interferer_octets = 60;
  params.seed = OpSeed(seed, 2, 0);
  return params;
}

// waveform_link: the paper's section 7.5 / Figure 16 link. Back-to-back
// 250-byte chunk-retransmit PP-ARQ exchanges over one waveform channel
// (LinkParams). The only workload where the phy/ppr receive stages
// (sync, demodulation, despreading) do most of the work.
class WaveformLink final : public Workload {
 public:
  explicit WaveformLink(std::uint64_t seed) : seed_(seed) {}

  void Setup() override { channel_ = core::MakeWaveformChannel(LinkParams(seed_)); }

  OpOutcome RunOp(std::uint64_t index, SpanRecorder* spans) override {
    const auto octets = LinkPayload(seed_, index);
    const BitVec payload = BitVec::FromBytes(octets);
    OpOutcome out;
    const arq::BodyChannel timed = [&](const BitVec& bits) {
      Span frame(spans, "ppr.link.frame");
      out.air_s += FrameAirSeconds(bits.size());
      return channel_(bits);
    };
    Span op(spans, "waveform_link.op", static_cast<std::int64_t>(index));
    arq::ArqRunStats stats;
    {
      Span exchange(spans, "arq.exchange");
      stats = arq::RunPpArqExchange(payload, arq::PpArqConfig{}, timed);
    }
    out.ok = stats.success;
    out.packets = stats.success ? 1 : 0;
    for (const auto bits : stats.retransmission_bits) {
      retransmission_octets_.push_back(static_cast<double>(bits) / 8.0);
    }
    out.facts = {stats.success, stats.data_transmissions, stats.forward_bits,
                 stats.feedback_bits};
    return out;
  }

  // Figure 16's claim: the median PP-ARQ retransmission is at most half
  // the packet. At this link it is about 60 of 250 octets, but a run's
  // median of a few dozen retransmissions ranges from ~30 to ~70, so a
  // tighter band would fail on honest seeds; whole-packet resends (a
  // chunker that stops splitting) still fail this one.
  bool CheckRun(std::string* why) const override {
    const double median = Quantile(retransmission_octets_, 0.5);
    if (median > 0.5 * kPacketOctets) {
      *why = "median retransmission " + std::to_string(median) +
             " octets, above half the packet";
      return false;
    }
    return true;
  }

 private:
  std::uint64_t seed_;
  arq::BodyChannel channel_;
  std::vector<double> retransmission_octets_;
};

// testbed_sweep's two windows per op: moderate load with carrier sense
// (Figure 8) and high load without (Figure 10), 5 simulated seconds
// each, short enough for ~100 ops a run.
struct TestbedLeg {
  double load_bps;
  bool carrier_sense;
  std::uint64_t stream;
};
constexpr TestbedLeg kTestbedLegs[2] = {{bench::kModerateLoad, true, 3},
                                        {bench::kHighLoad, false, 4}};
constexpr double kWindowSeconds = 5.0;

sim::ExperimentConfig LegConfig(std::uint64_t seed, const TestbedLeg& leg,
                                std::uint64_t index) {
  return sim::MakePaperConfig(leg.load_bps, leg.carrier_sense, kWindowSeconds,
                              OpSeed(seed, leg.stream, index));
}

// testbed_sweep: TestbedExperiment::Run over the 27-node testbed with
// 1500-byte frames under all six delivery schemes. Each op runs one
// moderate-load carrier-sense window (Figure 8) and one high-load
// no-carrier-sense window (Figure 10). The sim receiver model, medium
// and delivery do the work; the waveform PHY is bypassed, so a sync
// correlator change must leave this workload unchanged.
class TestbedSweep final : public Workload {
 public:
  explicit TestbedSweep(std::uint64_t seed) : seed_(seed) {}

  // An experiment fixes its traffic seed, so each op builds its own
  // pair the same way; set-up is building op 0's.
  void Setup() override { Build(0, nullptr); }

  OpOutcome RunOp(std::uint64_t index, SpanRecorder* spans) override {
    Span op(spans, "testbed_sweep.op", static_cast<std::int64_t>(index));
    Build(index, spans);
    OpOutcome out;
    for (std::size_t l = 0; l < experiments_.size(); ++l) {
      std::uint64_t receptions = 0;
      sim::ExperimentResult result;
      {
        Span run(spans, "sim.testbed.run");
        result = experiments_[l].Run(
            schemes_, [&](const sim::ReceptionRecord&,
                          const sim::ReceiverModel&) { ++receptions; });
      }
      out.packets += receptions;
      out.air_s += kWindowSeconds;
      out.ok = out.ok && receptions > 0 && !result.links.empty();
      std::uint64_t ppr_bits = 0;
      for (const auto& link : result.links) {
        ppr_bits += link.schemes.back().delivered_bits;
        if (l != 0) continue;  // only the Figure 8 window
        Fig8Link& agg = fig8_[{link.sender, link.receiver}];
        agg.frames_sent += link.frames_sent;
        agg.equivalent.resize(link.schemes.size(), 0.0);
        for (std::size_t k = 0; k < link.schemes.size(); ++k) {
          agg.equivalent[k] += link.schemes[k].equivalent_frames_delivered;
        }
      }
      out.facts.insert(out.facts.end(),
                       {receptions, result.total_transmissions, ppr_bits});
    }
    return out;
  }

  // Figure 8's ordering of median per-link FDR, over every Fig. 8
  // window the run simulated: postamble decoding never loses frames,
  // PPR beats FragCRC beats Packet CRC, and PPR+postamble delivers at
  // least 1.5x Packet CRC (about 3x here). The paper's finer "PPR ~
  // FragCRC+postamble" and strict postamble gains need minutes of
  // simulated air to hold; a run's shortest sample is 20 s.
  bool CheckRun(std::string* why) const override {
    std::vector<double> median(schemes_.size(), 0.0);
    for (std::size_t k = 0; k < schemes_.size(); ++k) {
      std::vector<double> fdr;
      for (const auto& [key, link] : fig8_) {
        if (link.frames_sent == 0) continue;
        fdr.push_back(link.equivalent[k] /
                      static_cast<double>(link.frames_sent));
      }
      median[k] = Quantile(fdr, 0.5);
    }
    // Scheme order: {PacketCRC, FragCRC, PPR} x {no postamble, postamble}.
    const double packet = median[0], frag = median[2], frag_post = median[3],
                 ppr = median[4], ppr_post = median[5];
    const bool ordered = ppr_post >= ppr && ppr > frag && frag > packet &&
                         ppr_post >= frag_post && frag_post >= frag &&
                         ppr_post >= 1.5 * packet;
    if (!ordered) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "fig8 median FDR out of order: ppr+post %.3f ppr %.3f "
                    "frag+post %.3f frag %.3f packet %.3f",
                    ppr_post, ppr, frag_post, frag, packet);
      *why = buf;
    }
    return ordered;
  }

 private:
  struct Fig8Link {
    std::size_t frames_sent = 0;
    std::vector<double> equivalent;
  };

  void Build(std::uint64_t index, SpanRecorder* spans) {
    Span span(spans, "sim.testbed.setup");
    experiments_.clear();
    for (const TestbedLeg& leg : kTestbedLegs) {
      experiments_.emplace_back(LegConfig(seed_, leg, index));
    }
  }

  std::uint64_t seed_;
  const std::vector<sim::SchemeConfig> schemes_ = bench::PaperSchemes();
  std::vector<sim::TestbedExperiment> experiments_;
  std::map<std::pair<std::size_t, std::size_t>, Fig8Link> fig8_;
};

const char* ModeName(arq::RecoveryMode mode) {
  switch (mode) {
    case arq::RecoveryMode::kChunkRetransmit: return "chunk";
    case arq::RecoveryMode::kCodedRepair: return "coded";
    case arq::RecoveryMode::kRelayCodedRepair: return "relay";
    case arq::RecoveryMode::kCollisionResolve: return "collide";
  }
  return "?";
}

constexpr arq::RecoveryMode kModes[] = {
    arq::RecoveryMode::kChunkRetransmit, arq::RecoveryMode::kCodedRepair,
    arq::RecoveryMode::kRelayCodedRepair, arq::RecoveryMode::kCollisionResolve};

constexpr std::size_t kRecoveryPacketsPerLink = 4;

// The Figure 8 links recovery_sweep runs on.
sim::ExperimentConfig RecoveryLinks() {
  return sim::MakePaperConfig(bench::kModerateLoad, true);
}

// One strategy's per-link recovery run in recovery_sweep's op `index`:
// the Figure 8 links at 250 bytes. kCollisionResolve runs at 2-byte FEC
// symbols, the shape its stripper resolves at, with 60% of initial
// transmissions a double collision.
sim::RecoveryExperimentConfig RecoveryConfig(arq::RecoveryMode mode,
                                             std::uint64_t seed,
                                             std::uint64_t index) {
  sim::RecoveryExperimentConfig config;
  config.arq.recovery = mode;
  config.payload_octets = kPacketOctets;
  config.packets_per_link = kRecoveryPacketsPerLink;
  config.seed = OpSeed(seed, 5, index);
  config.num_threads = 1;
  if (mode == arq::RecoveryMode::kCollisionResolve) {
    config.arq.codewords_per_fec_symbol = 4;
    config.collision_contention = 0.6;
    config.collision_chip_error_p = 0.002;
  }
  return config;
}

// Air time of a recovery run: every packet's initial body plus its
// repair and feedback traffic.
double RecoveryAirSeconds(const sim::RecoveryExperimentResult& r) {
  const double body_bits = 8.0 * (kPacketOctets + 4);
  return (static_cast<double>(r.packets) * body_bits +
          static_cast<double>(r.total_repair_bits + r.total_feedback_bits)) /
         kAirBitRate;
}

// recovery_sweep: sim::RunLinkRecoveryExperiment over the Figure 8
// links under all four recovery strategies, each op one seed for all
// four. arq (chunking DP, feedback codec), fec elimination on small
// symbols, collide and the chip medium do the work, and common::BitVec
// and phy hard decoding run differently from waveform_link.
class RecoverySweep final : public Workload {
 public:
  explicit RecoverySweep(std::uint64_t seed)
      : seed_(seed), config_(RecoveryLinks()) {}

  void Setup() override {
    cache_.reset();
    medium_.reset();
    topology_ = std::make_unique<sim::TestbedTopology>(config_.testbed);
    medium_ = std::make_unique<sim::RadioMedium>(topology_->Positions(),
                                                 config_.medium);
    cache_ = std::make_unique<sim::OverhearingRelayCache>(*medium_);
  }

  OpOutcome RunOp(std::uint64_t index, SpanRecorder* spans) override {
    Span op(spans, "recovery_sweep.op", static_cast<std::int64_t>(index));
    OpOutcome out;
    for (const auto mode : kModes) {
      const auto result = Run(RecoveryConfig(mode, seed_, index), spans,
                              std::string("sim.recovery.") + ModeName(mode));
      out.ok = out.ok && result.packets > 0 && result.completed == result.packets;
      out.packets += result.completed;
      out.air_s += RecoveryAirSeconds(result);
      out.facts.insert(out.facts.end(),
                       {result.completed, result.total_repair_bits,
                        result.total_feedback_bits});
      if (mode == arq::RecoveryMode::kCollisionResolve) {
        collide_rank_gained_ += result.total_collision_rank_gained;
        if (index == 0) resolve_repair_bits_ = result.total_repair_bits;
      }
    }
    if (index == 0) {
      // The discard baseline on the same links: collisions cost the
      // same airtime but nothing is distilled from them.
      auto config =
          RecoveryConfig(arq::RecoveryMode::kCollisionResolve, seed_, index);
      config.collision_resolve = false;
      discard_repair_bits_ =
          Run(config, spans, "sim.recovery.discard").total_repair_bits;
    }
    return out;
  }

  // Collision recovery must pay for itself: on op 0's links the
  // resolver spends fewer repair bits than discarding the collisions,
  // and its banked equations raise decoder rank.
  bool CheckRun(std::string* why) const override {
    if (resolve_repair_bits_ >= discard_repair_bits_ ||
        collide_rank_gained_ == 0) {
      *why = "collision resolver saved nothing: " +
             std::to_string(resolve_repair_bits_) + " repair bits vs " +
             std::to_string(discard_repair_bits_) + " discarding, rank +" +
             std::to_string(collide_rank_gained_);
      return false;
    }
    return true;
  }

 private:
  sim::RecoveryExperimentResult Run(const sim::RecoveryExperimentConfig& config,
                                    SpanRecorder* spans,
                                    const std::string& span_name) {
    Span span(spans, span_name);
    return sim::RunLinkRecoveryExperiment(config_, config, *topology_,
                                          *medium_, *cache_);
  }

  std::uint64_t seed_;
  sim::ExperimentConfig config_;
  std::unique_ptr<sim::TestbedTopology> topology_;
  std::unique_ptr<sim::RadioMedium> medium_;
  std::unique_ptr<sim::OverhearingRelayCache> cache_;
  std::size_t resolve_repair_bits_ = 0;
  std::size_t discard_repair_bits_ = 0;
  std::size_t collide_rank_gained_ = 0;
};

engine::EngineConfig EngineShape(fec::CodecKind codec, std::uint64_t seed) {
  engine::EngineConfig config;
  config.codec = codec;
  config.seed = seed;
  return config;
}

sim::StreamSweepConfig StreamShape(std::uint64_t seed, std::size_t packets) {
  sim::StreamSweepConfig config;
  config.loss_rates = {0.15};
  config.window_sizes = {16};
  config.session.total_packets = packets;
  config.seed = seed;
  config.num_threads = 1;
  return config;
}

constexpr std::size_t kRlncWave = 10'000;
constexpr std::size_t kRsWave = 2'000;
constexpr std::size_t kStreamPackets = 400;

// Spawns a wave of `flows` flows into `engine` and runs it dry. Every
// spawned flow must end completed or failed.
void RunWave(engine::FlowEngine& engine, std::size_t flows,
             engine::FlowId& next_flow, const std::string& codec,
             SpanRecorder* spans, OpOutcome& out) {
  const engine::EngineStats before = engine.stats();
  {
    Span span(spans, "engine." + codec + ".spawn");
    for (std::size_t f = 0; f < flows; ++f) engine.SpawnFlow(next_flow++);
  }
  {
    Span span(spans, "engine." + codec + ".run");
    engine.RunAll();
  }
  const engine::EngineStats& after = engine.stats();
  const std::uint64_t spawned = after.flows_spawned - before.flows_spawned;
  const std::uint64_t completed = after.flows_completed - before.flows_completed;
  const std::uint64_t failed = after.flows_failed - before.flows_failed;
  out.ok = out.ok && spawned == flows && completed + failed == spawned;
  out.packets += completed;
  out.air_s += static_cast<double>(after.repairs_sent - before.repairs_sent) *
               static_cast<double>(engine.config().symbol_bytes) * 8.0 /
               kAirBitRate;
  out.facts.insert(out.facts.end(),
                   {completed, failed, after.rounds - before.rounds,
                    after.repairs_delivered - before.repairs_delivered});
}

// flow_stream: the two session drivers. Each op spawns a wave of RLNC
// flows and a wave of Reed-Solomon flows into two long-lived
// FlowEngines and runs them dry, then runs the three stream redundancy
// controllers over one lossy link. fec runs wide-span batched encode and
// the GF(2^16) FFT here; the waveform PHY is bypassed.
class FlowStream final : public Workload {
 public:
  explicit FlowStream(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    rlnc_ = std::make_unique<engine::FlowEngine>(
        EngineShape(fec::CodecKind::kRlnc, seed_));
    rs_ = std::make_unique<engine::FlowEngine>(
        EngineShape(fec::CodecKind::kReedSolomon, seed_));
    next_flow_ = 0;
  }

  OpOutcome RunOp(std::uint64_t index, SpanRecorder* spans) override {
    Span op(spans, "flow_stream.op", static_cast<std::int64_t>(index));
    OpOutcome out;
    RunWave(*rlnc_, kRlncWave, next_flow_, "rlnc", spans, out);
    RunWave(*rs_, kRsWave, next_flow_, "rs", spans, out);
    sim::StreamExperimentResult stream;
    {
      Span span(spans, "stream.sweep");
      stream = sim::RunStreamRecoveryExperiment(
          StreamShape(OpSeed(seed_, 6, index), kStreamPackets));
    }
    for (const auto& point : stream.points) {
      const auto& s = point.stats;
      out.ok = out.ok && s.payload_mismatches == 0 && s.delivered > 0;
      out.packets += s.delivered;
      out.air_s += static_cast<double>(s.source_bits + s.repair_bits +
                                       s.feedback_bits) /
                   kAirBitRate;
      out.facts.insert(out.facts.end(),
                       {s.delivered, s.repair_sent, s.payload_mismatches});
    }
    return out;
  }

  bool CheckRun(std::string*) const override { return true; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<engine::FlowEngine> rlnc_;
  std::unique_ptr<engine::FlowEngine> rs_;
  engine::FlowId next_flow_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed) {
  if (name == "waveform_link") return std::make_unique<WaveformLink>(seed);
  if (name == "testbed_sweep") return std::make_unique<TestbedSweep>(seed);
  if (name == "recovery_sweep") return std::make_unique<RecoverySweep>(seed);
  if (name == "flow_stream") return std::make_unique<FlowStream>(seed);
  return nullptr;
}

// ---------------------------------------------------------- the ladder
// The stage ladder: the first ops of every workload at the run's seed,
// run again with a span around each call into a layer's public
// functions, and with the ops' own frames, receptions and configs fed
// through the layers' stages one call at a time. The per-layer metrics
// come from the ladder's spans alone. BENCHMARK.json lists one set of
// per-layer metrics that every traced run reports, so every workload's
// traced run walks the same ladder: what it does depends on --seed only,
// never on --seconds or on the workload traced. The ladder digest in the
// --json report pins that, and `pipeline_runs.py check-ladder` compares
// it across runs. Each rung is a root span "ladder.<workload>"; each call
// is a span named <module>.<stage>.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool timed = false;  // derived from wall time, so it varies run to run
};

constexpr std::int64_t kLadderTrace = 1'000'000;  // trace ids of the ladder
constexpr std::uint64_t kLinkCaptures = 3;        // waveform_link ops 0..2
constexpr std::uint64_t kRecoveryOps = 2;         // recovery_sweep ops 0..1

struct ModeTotals {
  std::uint64_t packets = 0, completed = 0, rounds = 0;
  std::uint64_t repair_bits = 0, feedback_bits = 0;
  std::uint64_t episodes = 0, resolved = 0, abandoned = 0, rank_gained = 0;

  void Add(const sim::RecoveryExperimentResult& r) {
    packets += r.packets;
    completed += r.completed;
    for (const auto& link : r.links) rounds += link.feedback_rounds;
    repair_bits += r.total_repair_bits;
    feedback_bits += r.total_feedback_bits;
    episodes += r.total_collision_episodes;
    resolved += r.total_collision_pairs_resolved;
    abandoned += r.total_collision_abandoned;
    rank_gained += r.total_collision_rank_gained;
  }
};

struct LadderFacts {
  std::uint64_t spread_chips = 0, modulated_samples = 0;
  std::uint64_t captures = 0, frames = 0, samples = 0;
  std::uint64_t chips = 0, soft_codewords = 0, hard_codewords = 0;
  std::uint64_t hits = 0, framed_hits = 0;
  std::uint64_t header_attempts = 0, header_failures = 0;
  std::uint64_t labeled_codewords = 0;
  std::vector<double> bad_runs;  // L fed to the chunking DP
  std::map<std::string, ModeTotals> recovery;
  bool chunk_replay_matches = true;
  std::uint64_t rlnc_repair_bytes = 0, rlnc_decoded_bytes = 0;
  std::uint64_t rlnc_equations = 0, rlnc_rank = 0;
  std::uint64_t rs_bytes = 0;
  fec::GfOpStats gf;
  engine::EngineStats engine_rlnc, engine_rs;
  std::uint64_t stream_source_bits = 0, stream_repair_bits = 0;
  std::uint64_t stream_dropped = 0;
  std::uint64_t receptions = 0, synced = 0, trace_codewords = 0;
  std::uint64_t delivery_evals = 0;
  std::uint64_t crc_bytes = 0, from_bytes_bytes = 0;
};

// The PP-ARQ receiver's per-packet work on one reception of `body`:
// label, run-length form, chunking DP, and the feedback codec round trip
// to the sender.
void ArqStages(const BitVec& body, const std::vector<phy::DecodedSymbol>& rx,
               SpanRecorder* spans, LadderFacts& f) {
  const softphy::ThresholdClassifier classifier;
  std::vector<bool> labels;
  {
    Span span(spans, "softphy.label");
    labels = classifier.Label(rx);
  }
  f.labeled_codewords += labels.size();
  softphy::RunLengthForm form;
  {
    Span span(spans, "softphy.runlength");
    form = softphy::ToRunLengthForm(labels);
  }
  if (form.AllGood()) return;
  f.bad_runs.push_back(static_cast<double>(form.NumBadRuns()));
  const std::size_t total = rx.size();
  arq::ChunkingConfig chunking;
  chunking.packet_bits = body.size();
  arq::ChunkingResult chunks;
  {
    Span span(spans, "arq.chunking");
    chunks = arq::ComputeOptimalChunks(form, chunking);
  }
  arq::FeedbackPacket feedback;
  for (const auto& c : chunks.chunks) {
    feedback.requests.push_back({c.offset_codewords, c.length_codewords});
  }
  const BitVec assembled = arq::SymbolsToLogicalBits(rx);
  BitVec wire;
  {
    Span span(spans, "arq.feedback_encode");
    wire = arq::EncodeFeedback(feedback, assembled, total, 4, 32);
  }
  std::optional<arq::DecodedFeedback> decoded;
  {
    Span span(spans, "arq.feedback_decode");
    decoded = arq::DecodeFeedback(wire, total, 4, 32);
  }
  if (!decoded) return;
  const arq::PpArqSender sender(body, 0, arq::PpArqConfig{});
  Span span(spans, "arq.handle_feedback");
  (void)sender.HandleFeedback(*decoded);
}

// The receive stages ReceiverPipeline::Process runs on a capture, in its
// order and through the same public calls, one span per call: preamble
// sync, then each hit's header and body; postamble sync, then each hit's
// trailer and rolled-back body. A body's chips are also hard despread,
// which Process does not do.
class ReceiveStages {
 public:
  explicit ReceiveStages(const core::PipelineConfig& config)
      : config_(config),
        demod_(config.modem),
        pre_(Pattern(frame::PreamblePatternOctets())),
        post_(Pattern(frame::PostamblePatternOctets())) {}

  void Run(const phy::SampleVec& air, SpanRecorder* spans, LadderFacts& f) const {
    const std::int64_t octet = 2 * phy::kChipsPerSymbol * config_.modem.samples_per_chip;
    const std::int64_t prefix = frame::kSyncPrefixOctets * octet;
    const std::size_t window = pre_.ReferenceLength();
    std::vector<phy::SyncHit> pre_hits, post_hits;
    {
      Span span(spans, "phy.sync_pre");
      pre_hits = pre_.FindPeaks(air, config_.sync_threshold, window);
    }
    for (const auto& hit : pre_hits) {
      const std::int64_t header_chip0 =
          static_cast<std::int64_t>(hit.sample_offset) + prefix;
      const auto header = Header(
          Decode(air, header_chip0, frame::kHeaderOctets * 2, hit.phase, spans, f),
          spans, f);
      if (header) Body(air, header_chip0, *header, hit.phase, spans, f);
    }
    {
      Span span(spans, "phy.sync_post");
      post_hits = post_.FindPeaks(air, config_.sync_threshold, window);
    }
    for (const auto& hit : post_hits) {
      const auto postamble = static_cast<std::int64_t>(hit.sample_offset);
      const auto header =
          Header(Decode(air, postamble - frame::kTrailerOctets * octet,
                        frame::kTrailerOctets * 2, hit.phase, spans, f),
                 spans, f);
      if (!header) continue;
      const std::int64_t frame_start =
          postamble - static_cast<std::int64_t>(
                          frame::FrameLayout(header->length).PostambleOffset()) *
                          octet;
      Body(air, frame_start + prefix, *header, hit.phase, spans, f);
    }
    f.hits += pre_hits.size() + post_hits.size();
  }

 private:
  phy::SampleVec Pattern(const std::vector<std::uint8_t>& octets) const {
    return phy::MskModulator(config_.modem)
        .Modulate(phy::SpreadBits(codebook_, BitVec::FromBytes(octets)));
  }

  // ReceiverPipeline::DecodeSymbols, one span per stage: the matched
  // filter's chip values from sample `chip0` on (negative indices read
  // as silence), derotated by the sync hit's carrier phase, then soft
  // despreading with the pipeline's hint kind.
  std::vector<phy::DecodedSymbol> Decode(const phy::SampleVec& air,
                                         std::int64_t chip0, std::size_t symbols,
                                         double phase, SpanRecorder* spans,
                                         LadderFacts& f,
                                         std::vector<double>* soft_out = nullptr) const {
    const std::int64_t sps = config_.modem.samples_per_chip;
    std::vector<double> soft(symbols * phy::kChipsPerSymbol);
    {
      Span span(spans, "phy.demod");
      const phy::Sample derotate{std::cos(-phase), std::sin(-phase)};
      for (std::size_t k = 0; k < soft.size(); ++k) {
        const phy::Sample c = derotate * demod_.DemodulateChipComplexAt(
                                             air, chip0 + static_cast<std::int64_t>(k) * sps);
        soft[k] = k % 2 == 0 ? c.real() : c.imag();
      }
    }
    f.chips += soft.size();
    std::vector<phy::DecodedSymbol> decoded;
    {
      Span span(spans, "phy.despread_soft");
      decoded = phy::DespreadSoft(codebook_, soft, config_.hint_kind);
    }
    f.soft_codewords += decoded.size();
    if (soft_out) *soft_out = std::move(soft);
    return decoded;
  }

  // A header (or trailer) Process would accept.
  std::optional<frame::FrameHeader> Header(
      const std::vector<phy::DecodedSymbol>& symbols, SpanRecorder* spans,
      LadderFacts& f) const {
    Span span(spans, "frame.header");
    ++f.header_attempts;
    auto header = frame::DecodeHeader(phy::DecodedSymbolsToBits(symbols).ToBytes());
    if (!header || header->length > config_.max_payload_octets) {
      ++f.header_failures;
      return std::nullopt;
    }
    return header;
  }

  void Body(const phy::SampleVec& air, std::int64_t header_chip0,
            const frame::FrameHeader& header, double phase, SpanRecorder* spans,
            LadderFacts& f) const {
    ++f.framed_hits;
    std::vector<double> soft;
    Decode(air, header_chip0, frame::FrameLayout(header.length).BodyOctets() * 2,
           phase, spans, f, &soft);
    Span span(spans, "phy.despread_hard");
    f.hard_codewords += phy::DespreadHard(codebook_, phy::HardChips(soft)).size();
  }

  core::PipelineConfig config_;
  phy::ChipCodebook codebook_;
  phy::MskDemodulator demod_;
  phy::WaveformCorrelator pre_;
  phy::WaveformCorrelator post_;
};

// phy, frame, ppr and softphy: waveform_link's ops 0..kLinkCaptures-1.
// Each op's first frame (its PP-ARQ body, framed) becomes a capture the
// way the workload's channel builds one (ppr/medium.cc) from LinkParams:
// the frame at a random carrier phase between 64-chip guards; with the
// link's collision probability, a burst of its interferer octets at its
// relative power at a random offset; then AWGN at its Ec/N0. The random
// draws are the bench's own. Each capture goes through
// ReceiverPipeline::Process, then through the same calls one span each
// (they account for all of Process: the difference stays within the
// host's noise, a few percent either way); the frame Process recovers
// is the reception the PP-ARQ receiver's stages then get.
void WaveformRung(std::uint64_t seed, SpanRecorder* spans, LadderFacts& f) {
  const core::WaveformChannelParams link = LinkParams(seed);
  const phy::ModemConfig& modem = link.pipeline.modem;
  const std::size_t guard = 64 * modem.samples_per_chip;
  const phy::ChipCodebook codebook;
  const phy::MskModulator modulator(modem);
  const core::ReceiverPipeline pipeline(link.pipeline);
  const ReceiveStages stages(link.pipeline);
  const double sigma = phy::NoiseSigmaForEcN0(
      std::pow(10.0, link.ec_n0_db / 10.0), modem.amplitude, modem.samples_per_chip);
  const double burst_gain = std::pow(10.0, link.interferer_relative_db / 20.0);

  for (std::uint64_t op = 0; op < kLinkCaptures; ++op) {
    Span root(spans, "ladder.waveform_link",
              kLadderTrace + static_cast<std::int64_t>(op));
    Rng rng(OpSeed(seed, 7, op));
    const BitVec body =
        arq::PpArqSender::MakeBody(BitVec::FromBytes(LinkPayload(seed, op)));
    const auto payload = body.ToBytes();
    frame::FrameHeader header;
    header.length = static_cast<std::uint16_t>(payload.size());
    header.dst = 2;
    header.src = 1;
    header.seq = static_cast<std::uint16_t>(op + 1);
    std::vector<std::uint8_t> octets;
    {
      Span span(spans, "frame.build");
      octets = frame::BuildFrameOctets(header, payload);
    }
    BitVec chips;
    {
      Span span(spans, "phy.spread");
      chips = phy::SpreadBits(codebook, BitVec::FromBytes(octets));
    }
    f.spread_chips += chips.size();
    phy::SampleVec wave;
    {
      Span span(spans, "phy.modulate");
      wave = modulator.Modulate(chips);
    }
    f.modulated_samples += wave.size();
    phy::ApplyCarrierOffset(wave, 0.0, rng.UniformDouble(0.0, 2.0 * std::numbers::pi));
    phy::SampleVec air(wave.size() + 2 * guard, phy::Sample{0.0, 0.0});
    phy::MixInto(air, wave, guard);
    if (rng.Bernoulli(link.collision_probability)) {
      phy::SampleVec burst = modulator.Modulate(phy::SpreadBits(
          codebook, BitVec::FromBytes(RandomOctets(rng.Next(), link.interferer_octets))));
      phy::ApplyCarrierOffset(burst, 0.0,
                              rng.UniformDouble(0.0, 2.0 * std::numbers::pi));
      phy::MixInto(air, burst, rng.UniformInt(air.size() - burst.size()), burst_gain);
    }
    phy::AddAwgn(air, sigma, rng);
    ++f.captures;

    std::vector<core::RecoveredFrame> frames;
    {
      Span span(spans, "ppr.process");
      frames = pipeline.Process(air);
    }
    f.samples += air.size();
    f.frames += frames.size();
    stages.Run(air, spans, f);
    for (const auto& frame : frames) {
      if (frame.header.seq == header.seq && frame.header.length == header.length) {
        ArqStages(body, frame.PayloadSymbols(), spans, f);
        break;
      }
    }
  }
}

// The chip channel RunLinkRecoveryExperiment gives a two-party link at
// `snr_db` (sim/experiment.cc): clean-state chip errors at the link SNR
// plus the receiver model's floor, impairment bursts per the model.
arq::GilbertElliottParams LinkChannel(const sim::ExperimentConfig& config,
                                      double snr_db) {
  arq::GilbertElliottParams ge;
  ge.chip_error_good =
      std::min(0.5, phy::ChipErrorProbability(std::pow(10.0, snr_db / 10.0)) +
                        config.receiver.good_chip_floor);
  ge.chip_error_bad = config.receiver.impaired_chip_error;
  ge.p_good_to_bad = config.receiver.impairment_rate;
  ge.p_bad_to_good = config.receiver.impairment_exit;
  return ge;
}

// arq strategies, collide, and the PP-ARQ receiver's stages on chip-level
// receptions: recovery_sweep's ops 0..kRecoveryOps-1. Each strategy's
// RunLinkRecoveryExperiment call is the op's own. The chunk-retransmit
// exchanges then run again, link by link, over a rebuilt copy of each
// link's channel, forked from the same seeds in the same order as
// RunLinkRecoveryExperiment forks them. So the receiver's stages get the
// workload's own first receptions, and the channel's share of exchange
// time is measured. The rebuilt run must deliver exactly what the
// library's did, or the traced run fails.
void RecoveryRung(std::uint64_t seed, SpanRecorder* spans, LadderFacts& f) {
  const sim::ExperimentConfig links = RecoveryLinks();
  const sim::TestbedTopology topology(links.testbed);
  const sim::RadioMedium medium(topology.Positions(), links.medium);
  const phy::ChipCodebook codebook;
  for (std::uint64_t op = 0; op < kRecoveryOps; ++op) {
    Span root(spans, "ladder.recovery_sweep",
              kLadderTrace + 100 + static_cast<std::int64_t>(op));
    ModeTotals library_chunk;
    for (const auto mode : kModes) {
      const std::string name = ModeName(mode);
      sim::RecoveryExperimentResult result;
      {
        Span span(spans, "sim.recovery." + name);
        result = sim::RunLinkRecoveryExperiment(links, RecoveryConfig(mode, seed, op));
      }
      f.recovery[name].Add(result);
      if (mode == arq::RecoveryMode::kChunkRetransmit) library_chunk.Add(result);
    }

    const auto config = RecoveryConfig(arq::RecoveryMode::kChunkRetransmit, seed, op);
    const auto strategy = arq::MakeRecoveryStrategy(config.arq);
    ModeTotals replay;
    Rng root_rng(config.seed);
    for (std::size_t r = 0; r < topology.NumReceivers(); ++r) {
      for (std::size_t s = 0; s < topology.NumSenders(); ++s) {
        const double snr_db =
            medium.LinkSnrDb(topology.SenderId(s), topology.ReceiverId(r));
        Rng link_rng = root_rng.Fork();
        if (snr_db < links.min_link_snr_db) continue;
        Rng channel_rng = link_rng.Fork();
        Rng payload_rng = link_rng.Fork();
        const auto channel = arq::MakeGilbertElliottChannel(
            codebook, LinkChannel(links, snr_db), channel_rng);
        for (std::size_t p = 0; p < config.packets_per_link; ++p) {
          BitVec payload;
          for (std::size_t b = 0; b < config.payload_octets; ++b) {
            payload.AppendUint(payload_rng.UniformInt(256), 8);
          }
          std::vector<phy::DecodedSymbol> first;
          const arq::BodyChannel timed = [&](const BitVec& bits) {
            Span span(spans, "arq.channel");
            auto rx = channel(bits);
            if (first.empty()) first = rx;
            return rx;
          };
          arq::SessionRunStats stats;
          {
            Span span(spans, "arq.exchange");
            stats = arq::RunRecoveryExchangeSession(payload, config.arq, *strategy,
                                                    timed, config.max_rounds);
          }
          ++replay.packets;
          replay.completed += stats.totals.success ? 1 : 0;
          replay.feedback_bits += stats.totals.feedback_bits;
          for (const auto bits : stats.totals.retransmission_bits) {
            replay.repair_bits += bits;
          }
          ArqStages(arq::PpArqSender::MakeBody(payload), first, spans, f);
        }
      }
    }
    f.chunk_replay_matches = f.chunk_replay_matches &&
                             replay.packets == library_chunk.packets &&
                             replay.completed == library_chunk.completed &&
                             replay.repair_bits == library_chunk.repair_bits &&
                             replay.feedback_bits == library_chunk.feedback_bits;
  }
}

// fec: RLNC repair encode and decode at coded repair's shape (a 254-byte
// body in 32 symbols of 8 bytes, a quarter of them lost), and
// Reed-Solomon encode and decode at the flow engine's shape (16 symbols
// of 64 bytes, 3 parity, 3 lost). Their cost does not depend on the
// symbols' contents, which are random.
void FecRung(std::uint64_t seed, SpanRecorder* spans, LadderFacts& f) {
  constexpr int kBlocks = 300;
  Rng rng(OpSeed(seed, 11, 0));
  const auto block = [&](std::size_t n, std::size_t bytes) {
    std::vector<std::vector<std::uint8_t>> symbols(n);
    for (auto& s : symbols) s = RandomOctets(rng.Next(), bytes);
    return symbols;
  };
  Span root(spans, "ladder.fec", kLadderTrace + 200);
  for (int b = 0; b < kBlocks; ++b) {
    constexpr std::size_t kN = 32, kBytes = 8, kLost = 8;
    const auto source = block(kN, kBytes);
    const fec::RlncEncoder encoder(source);
    std::vector<fec::RepairSymbol> repairs;
    {
      Span span(spans, "fec.repair_encode");
      for (std::uint32_t r = 1; r <= kLost + 2; ++r) {
        repairs.push_back(encoder.MakeRepair(rng.Next() & 0xFFFFFF));
      }
    }
    f.rlnc_repair_bytes += repairs.size() * kBytes;
    Span span(spans, "fec.rlnc_decode");
    fec::RlncDecoder decoder(kN, kBytes);
    for (std::size_t i = kLost; i < kN; ++i) decoder.AddSource(i, source[i]);
    f.rlnc_equations += kN - kLost;
    for (const auto& repair : repairs) {
      if (decoder.Complete()) break;
      decoder.AddRepair(repair);
      ++f.rlnc_equations;
    }
    f.rlnc_rank += decoder.rank();
    f.rlnc_decoded_bytes += kN * kBytes;
  }
  for (int b = 0; b < kBlocks; ++b) {
    constexpr std::size_t kK = 16, kM = 3, kBytes = 64;
    const auto source = block(kK, kBytes);
    fec::ReedSolomonEncoder encoder(kK, kM, kBytes);
    {
      Span span(spans, "fec.rs_encode");
      for (std::size_t i = 0; i < kK; ++i) encoder.SetSource(i, source[i]);
      encoder.Finish();
    }
    Span span(spans, "fec.rs_decode");
    fec::ReedSolomonDecoder decoder(kK, kM, kBytes);
    for (std::size_t i = kM; i < kK; ++i) decoder.AddSourceSpan(i, source[i]);
    for (std::size_t j = 0; j < kM; ++j) {
      decoder.AddParitySpan(j, encoder.Parity(j));
    }
    decoder.Decode();
    f.rs_bytes += kK * kBytes;
  }
}

constexpr stream::ControllerKind kControllers[] = {
    stream::ControllerKind::kFixedRate, stream::ControllerKind::kAckDeficit,
    stream::ControllerKind::kDeadline};

// engine and stream: flow_stream's op 0. Its first waves go into two
// fresh engines built as Setup builds them; its stream sweep then runs
// one controller at a time.
void FlowRung(std::uint64_t seed, SpanRecorder* spans, LadderFacts& f) {
  engine::FlowEngine rlnc(EngineShape(fec::CodecKind::kRlnc, seed));
  engine::FlowEngine rs(EngineShape(fec::CodecKind::kReedSolomon, seed));
  Span root(spans, "ladder.flow_stream", kLadderTrace + 400);
  OpOutcome out;
  engine::FlowId next_flow = 0;
  RunWave(rlnc, kRlncWave, next_flow, "rlnc", spans, out);
  RunWave(rs, kRsWave, next_flow, "rs", spans, out);
  f.engine_rlnc = rlnc.stats();
  f.engine_rs = rs.stats();
  for (const auto kind : kControllers) {
    auto config = StreamShape(OpSeed(seed, 6, 0), kStreamPackets);
    config.controllers = {kind};
    sim::StreamExperimentResult result;
    {
      Span span(spans, "stream.session." +
                           std::string(stream::ControllerKindName(kind)));
      result = sim::RunStreamRecoveryExperiment(config);
    }
    for (const auto& point : result.points) {
      const auto& s = point.stats;
      f.stream_source_bits += s.source_bits;
      f.stream_repair_bits += s.repair_bits;
      f.stream_dropped += s.decoder_stale_dropped + s.decoder_overflow_dropped +
                          s.ambiguous_id_dropped;
    }
  }
}

// sim: testbed_sweep's op 0, both windows, through the steps
// TestbedExperiment::Run takes, one span per call: the traffic schedule,
// each receiver's model, and each scheme's delivery on the links Run
// evaluates (those at or above the audibility SNR).
void SimRung(std::uint64_t seed, SpanRecorder* spans, LadderFacts& f) {
  const auto schemes = bench::PaperSchemes();
  for (const TestbedLeg& leg : kTestbedLegs) {
    const sim::ExperimentConfig config = LegConfig(seed, leg, 0);
    const sim::TestbedTopology topology(config.testbed);
    const sim::RadioMedium medium(topology.Positions(), config.medium);
    const sim::ReceiverModel model(medium, config.receiver);
    sim::TrafficConfig traffic = config.traffic;
    traffic.frame_total_chips = model.Layout().TotalChips();
    traffic.payload_bits = config.receiver.payload_octets * 8;
    std::vector<std::size_t> senders;
    for (std::size_t i = 0; i < topology.NumSenders(); ++i) {
      senders.push_back(topology.SenderId(i));
    }
    Span root(spans, "ladder.testbed_sweep",
              kLadderTrace + 600 + static_cast<std::int64_t>(leg.stream));
    std::vector<sim::Transmission> schedule;
    {
      Span span(spans, "sim.schedule");
      schedule = sim::GenerateSchedule(traffic, medium, senders);
    }
    for (std::size_t r = 0; r < topology.NumReceivers(); ++r) {
      const std::size_t receiver = topology.ReceiverId(r);
      Span span(spans, "sim.receiver_model");
      model.ProcessReceiver(receiver, schedule, [&](const sim::ReceptionRecord& rec) {
        ++f.receptions;
        f.synced += rec.preamble_sync || rec.postamble_sync;
        f.trace_codewords += rec.trace.size();
        if (medium.LinkSnrDb(rec.sender, receiver) < config.min_link_snr_db) return;
        for (const auto& scheme : schemes) {
          Span eval(spans, "sim.delivery");
          (void)sim::EvaluateDelivery(rec, model, scheme);
          ++f.delivery_evals;
        }
      });
    }
  }
}

// common: CRC-32 and BitVec unpacking over waveform_link's payloads,
// batched so the span's own cost stays outside the per-byte rate. The
// calls live in another translation unit, so their results need no sink.
void CommonRung(std::uint64_t seed, SpanRecorder* spans, LadderFacts& f) {
  constexpr int kPayloads = 4000;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < kPayloads; ++i) payloads.push_back(LinkPayload(seed, i));
  Span root(spans, "ladder.common", kLadderTrace + 700);
  {
    Span span(spans, "common.crc32");
    for (const auto& p : payloads) (void)Crc32(p);
  }
  f.crc_bytes += kPayloads * kPacketOctets;
  {
    Span span(spans, "common.bitvec.from_bytes");
    for (const auto& p : payloads) (void)BitVec::FromBytes(p);
  }
  f.from_bytes_bytes += kPayloads * kPacketOctets;
}

LadderFacts RunLadder(std::uint64_t seed, SpanRecorder* spans) {
  LadderFacts f;
  const fec::GfImpl impl = fec::GfActiveImpl();
  const fec::GfOpStats gf_before = fec::GfThreadStatsFor(impl);
  WaveformRung(seed, spans, f);
  RecoveryRung(seed, spans, f);
  FecRung(seed, spans, f);
  FlowRung(seed, spans, f);
  SimRung(seed, spans, f);
  CommonRung(seed, spans, f);
  f.gf = fec::GfThreadStatsFor(impl) - gf_before;
  return f;
}

std::vector<Metric> PerLayerMetrics(const SpanStats& spans, const LadderFacts& f,
                                    double trace_overhead) {
  std::vector<Metric> m;
  // Counts and ratios of counts: the same on every run of one seed.
  const auto count = [&](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit), false});
  };
  const auto timed = [&](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit), true});
  };
  const auto self_s = [&](const std::string& stage) {
    const auto it = spans.find(stage);
    return it == spans.end() ? 0.0 : it->second.SelfSeconds();
  };
  const auto rate = [&](const std::string& stage, double work) {
    return Ratio(work, self_s(stage));
  };
  const auto ns_per_call = [&](const std::string& stage) {
    const auto it = spans.find(stage);
    return it == spans.end() ? 0.0 : Ratio(it->second.self_ns, it->second.calls);
  };

  timed("phy.spread.chips_per_s", rate("phy.spread", f.spread_chips), "chips/s");
  timed("phy.modulate.samples_per_s", rate("phy.modulate", f.modulated_samples),
        "samples/s");
  timed("phy.sync_pre.samples_per_s", rate("phy.sync_pre", f.samples),
        "samples/s");
  timed("phy.sync_post.samples_per_s", rate("phy.sync_post", f.samples),
        "samples/s");
  count("phy.sync.hit_yield", Ratio(f.framed_hits, f.hits), "share");
  timed("phy.demod.chips_per_s", rate("phy.demod", f.chips), "chips/s");
  timed("phy.despread_soft.codewords_per_s",
        rate("phy.despread_soft", f.soft_codewords), "codewords/s");
  timed("phy.despread_hard.codewords_per_s",
        rate("phy.despread_hard", f.hard_codewords), "codewords/s");
  count("frame.header.pass_share",
        1.0 - Ratio(f.header_failures, f.header_attempts), "share");
  timed("ppr.process.samples_per_s", rate("ppr.process", f.samples), "samples/s");
  count("ppr.process.frames_per_capture", Ratio(f.frames, f.captures), "frames");
  timed("softphy.label.codewords_per_s",
        rate("softphy.label", f.labeled_codewords), "codewords/s");
  timed("softphy.runlength.codewords_per_s",
        rate("softphy.runlength", f.labeled_codewords), "codewords/s");

  timed("arq.chunking.ns_per_call", ns_per_call("arq.chunking"), "ns");
  count("arq.chunking.bad_runs.p50", Quantile(f.bad_runs, 0.50), "runs");
  count("arq.chunking.bad_runs.p99", Quantile(f.bad_runs, 0.99), "runs");
  timed("arq.feedback_encode.ns_per_call", ns_per_call("arq.feedback_encode"),
        "ns");
  timed("arq.feedback_decode.ns_per_call", ns_per_call("arq.feedback_decode"),
        "ns");
  timed("arq.handle_feedback.ns_per_call", ns_per_call("arq.handle_feedback"),
        "ns");
  const double channel_s = self_s("arq.channel");
  timed("arq.channel.busy_share",
        Ratio(channel_s, channel_s + self_s("arq.exchange")), "share");
  for (const auto mode : kModes) {
    const std::string name = ModeName(mode);
    const ModeTotals& r = f.recovery.at(name);
    const std::string prefix = "arq." + name;
    timed(prefix + ".packets_per_s", rate("sim.recovery." + name, r.completed),
          "packets/s");
    count(prefix + ".rounds_per_packet", Ratio(r.rounds, r.packets), "rounds");
    count(prefix + ".repair_bits_per_packet", Ratio(r.repair_bits, r.packets),
          "bits");
    count(prefix + ".feedback_bits_per_packet", Ratio(r.feedback_bits, r.packets),
          "bits");
  }

  count("fec.gf.bytes", f.gf.bytes, "bytes");
  count("fec.gf.mean_span_bytes", Ratio(f.gf.bytes, f.gf.calls), "bytes");
  timed("fec.repair_encode.mb_per_s",
        rate("fec.repair_encode", f.rlnc_repair_bytes * 1e-6), "MB/s");
  timed("fec.rlnc_decode.mb_per_s",
        rate("fec.rlnc_decode", f.rlnc_decoded_bytes * 1e-6), "MB/s");
  timed("fec.rs_encode.mb_per_s", rate("fec.rs_encode", f.rs_bytes * 1e-6),
        "MB/s");
  timed("fec.rs_decode.mb_per_s", rate("fec.rs_decode", f.rs_bytes * 1e-6),
        "MB/s");
  count("fec.rank_yield", Ratio(f.rlnc_rank, f.rlnc_equations), "share");

  const ModeTotals& collide = f.recovery.at("collide");
  count("collide.resolved_share", Ratio(collide.resolved, collide.episodes),
        "share");
  count("collide.abandoned_share", Ratio(collide.abandoned, collide.episodes),
        "share");
  count("collide.rank_gained_per_episode",
        Ratio(collide.rank_gained, collide.episodes), "rank");

  const auto& rlnc = f.engine_rlnc;
  timed("engine.spawn.flows_per_s", rate("engine.rlnc.spawn", rlnc.flows_spawned),
        "flows/s");
  timed("engine.run.busy_s", self_s("engine.rlnc.run"), "s");
  timed("engine.rlnc.flows_per_s",
        Ratio(rlnc.flows_completed,
              self_s("engine.rlnc.spawn") + self_s("engine.rlnc.run")),
        "flows/s");
  timed("engine.rs.flows_per_s",
        Ratio(f.engine_rs.flows_completed,
              self_s("engine.rs.spawn") + self_s("engine.rs.run")),
        "flows/s");
  count("engine.rounds_per_flow", Ratio(rlnc.rounds, rlnc.flows_spawned),
        "rounds");
  count("engine.batch.mean_span_bytes", Ratio(rlnc.batch_bytes, rlnc.batch_calls),
        "bytes");
  count("engine.repair_yield", Ratio(rlnc.repairs_delivered, rlnc.repairs_sent),
        "share");

  for (const auto kind : kControllers) {
    const std::string name(stream::ControllerKindName(kind));
    timed("stream.session." + name + ".busy_s", self_s("stream.session." + name),
          "s");
  }
  count("stream.repair_overhead",
        Ratio(f.stream_repair_bits, f.stream_source_bits), "share");
  count("stream.decoder_dropped", f.stream_dropped, "symbols");

  timed("sim.schedule.busy_s", self_s("sim.schedule"), "s");
  timed("sim.receiver_model.receptions_per_s",
        rate("sim.receiver_model", f.receptions), "receptions/s");
  timed("sim.receiver_model.codewords_per_s",
        rate("sim.receiver_model", f.trace_codewords), "codewords/s");
  timed("sim.delivery.evals_per_s", rate("sim.delivery", f.delivery_evals),
        "evals/s");
  count("sim.sync_yield", Ratio(f.synced, f.receptions), "share");

  timed("common.crc32.mb_per_s", rate("common.crc32", f.crc_bytes * 1e-6),
        "MB/s");
  timed("common.bitvec.from_bytes.mb_per_s",
        rate("common.bitvec.from_bytes", f.from_bytes_bytes * 1e-6), "MB/s");
  timed("obs.trace_overhead", trace_overhead, "x");
  return m;
}

// What the ladder did: a CRC-32 over its span names and call counts and
// its untimed metrics. Equal for every run of one seed, whatever its
// --seconds and whichever workload it traced.
std::uint32_t LadderDigest(const SpanStats& spans,
                           const std::vector<Metric>& metrics) {
  std::string text;
  for (const auto& [name, stat] : spans) {
    text += name + "=" + std::to_string(stat.calls) + ";";
  }
  for (const auto& metric : metrics) {
    if (metric.timed) continue;
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    text += metric.name + "=" + value + ";";
  }
  return Crc32(std::vector<std::uint8_t>(text.begin(), text.end()));
}

// ------------------------------------------------------------ the runs

struct RunTotals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t packets = 0;
  double wall_s = 0.0;
  // Each op's air time over its wall time. Their median is the run's
  // rtf: an op's cost follows its air time, so the median shrugs off
  // ops the host slowed, where a whole-run ratio would not.
  std::vector<double> op_rtf;
  std::vector<double> op_wall;       // each op's wall time (s)
  std::vector<double> setup_bursts;  // median set-up time of each burst
  std::uint32_t digest = 0;
  std::vector<std::uint8_t> digest_bytes;

  void Add(std::uint64_t index, const OpOutcome& out, double wall) {
    if (index > 0) {
      ++attempted;
      failed += out.ok ? 0 : 1;
      packets += out.packets;
      wall_s += wall;
      op_rtf.push_back(Ratio(out.air_s, wall));
      op_wall.push_back(wall);
    } else if (!out.ok) {
      ++failed;  // the warm-up op is checked too
    }
    if (index < kDigestOps) {
      for (std::uint64_t v : out.facts) {
        for (int b = 0; b < 8; ++b) {
          digest_bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
        }
      }
      digest = Crc32(digest_bytes);
    }
  }
};

// One burst of kSetupSamples timed Setup() calls, each on a fresh
// workload so the running one keeps its state; returns their median.
double SetupBurstSeconds(const std::function<std::unique_ptr<Workload>()>& fresh) {
  std::vector<double> samples;
  for (int k = 0; k < kSetupSamples; ++k) {
    const auto probe = fresh();
    const auto t = Clock::now();
    probe->Setup();
    samples.push_back(SecondsSince(t));
  }
  return Quantile(samples, 0.5);
}

// Runs the warm-up op 0, then ops 1.. until `budget_s` has passed (at
// least kMinOps of them). Also takes a set-up burst before op 1 and
// then once every kSetupBurstPeriod: set-up takes microseconds, and at
// that scale the host's speed drifts over seconds, so bursts spread
// over the run give a steadier median than one burst at its start.
RunTotals RunOps(Workload& workload, double budget_s,
                 const std::function<std::unique_ptr<Workload>()>& fresh) {
  RunTotals totals;
  totals.Add(0, workload.RunOp(0, nullptr), 0.0);
  const auto start = Clock::now();
  auto last_burst = start - kSetupBurstPeriod;
  for (std::uint64_t i = 1; i <= kMinOps || SecondsSince(start) < budget_s; ++i) {
    if (Clock::now() - last_burst >= kSetupBurstPeriod) {
      totals.setup_bursts.push_back(SetupBurstSeconds(fresh));
      last_burst = Clock::now();
    }
    const auto t = Clock::now();
    const OpOutcome out = workload.RunOp(i, nullptr);
    totals.Add(i, out, SecondsSince(t));
  }
  return totals;
}

// Runs the workload's ops on two set-up instances in lockstep until
// `budget_s` has passed (at least kMinOps measured ops): `plain`
// untraced, and `traced` with a span around each layer call and a
// metrics context installed, the two alternating which runs an op
// first. Each op's traced and untraced walls are then taken moments
// apart, so the host's drift in speed cancels from their ratio.
void RunPairedOps(Workload& plain, Workload& traced, double budget_s,
                  SpanRecorder* spans, RunTotals& plain_totals,
                  RunTotals& traced_totals) {
  obs::MetricRegistry registry;
  const auto run = [&](std::uint64_t i, bool with_trace) {
    const auto t = Clock::now();
    if (!with_trace) {
      const OpOutcome out = plain.RunOp(i, nullptr);
      plain_totals.Add(i, out, SecondsSince(t));
      return;
    }
    const obs::ScopedObsContext context(&registry);
    const OpOutcome out = traced.RunOp(i, i > 0 ? spans : nullptr);
    traced_totals.Add(i, out, SecondsSince(t));
  };
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i <= kMinOps || SecondsSince(start) < budget_s; ++i) {
    run(i, i % 2 == 1);
    run(i, i % 2 == 0);
  }
}

// The process's own high-water RSS. getrusage's ru_maxrss is not used:
// Linux carries the pre-exec image's peak across exec, so a bench
// started from a large parent (such as run.py) would report the
// parent's size.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void WriteMetricsJson(std::FILE* f, const std::vector<Metric>& metrics) {
  std::fprintf(f, "{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"unit\": \"%s\", \"value\": %.12g}",
                 i ? ", " : "", metrics[i].name.c_str(), metrics[i].unit.c_str(),
                 std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
  }
  std::fprintf(f, "}");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
  std::string json_path;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace_path = value;
    } else if (flag == "--json") {
      args.json_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !(args.seconds > 0.0)) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  const auto workload = args ? MakeWorkload(args->workload, args->seed) : nullptr;
  if (!workload) {
    std::fprintf(stderr,
                 "usage: %s --workload "
                 "waveform_link|testbed_sweep|recovery_sweep|flow_stream "
                 "--seed N --seconds S [--trace SPANS.json] [--json REPORT.json]\n",
                 argv[0]);
    return 2;
  }
  const bool traced = !args->trace_path.empty();
  std::vector<Metric> metrics;
  RunTotals totals;
  std::uint32_t ladder_digest = 0;
  std::vector<std::string> failures;

  if (!traced) {
    workload->Setup();
    totals = RunOps(*workload, args->seconds,
                    [&] { return MakeWorkload(args->workload, args->seed); });
    metrics = {
        {"setup_s", Quantile(totals.setup_bursts, 0.5), "s", true},
        {"peak_rss_mb", PeakRssMb(), "MiB", true},
        {"rtf", Quantile(totals.op_rtf, 0.5), "air_s/s", true},
        {"packets_per_s",
         Ratio(static_cast<double>(totals.packets), totals.wall_s), "1/s", true},
    };
  } else {
    SpanRecorder spans;
    const auto start = Clock::now();
    const LadderFacts ladder = RunLadder(args->seed, &spans);
    const SpanStats ladder_spans = spans.TakeStats();
    if (!ladder.chunk_replay_matches) {
      failures.push_back("the ladder's chunk exchanges differ from recovery_sweep's");
    }
    // The rest of the budget goes to the workload's ops, each run
    // untraced and traced.
    const auto traced_workload = MakeWorkload(args->workload, args->seed);
    workload->Setup();
    traced_workload->Setup();
    RunTotals traced_totals;
    RunPairedOps(*workload, *traced_workload,
                 std::max(0.0, args->seconds - SecondsSince(start)), &spans,
                 totals, traced_totals);
    if (traced_totals.digest != totals.digest) {
      failures.push_back("the traced ops diverged from the untraced ones");
    }
    totals.failed += traced_totals.failed;
    // Each op traced over the same op untraced: pairing cancels the
    // spread of op sizes, and the median the ops the host slowed.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced_totals.op_wall.size(); ++i) {
      overhead.push_back(Ratio(traced_totals.op_wall[i], totals.op_wall[i]));
    }
    metrics = PerLayerMetrics(ladder_spans, ladder, Quantile(overhead, 0.5));
    ladder_digest = LadderDigest(ladder_spans, metrics);
    if (spans.tracer().dropped() > 0) failures.push_back("span buffer overflowed");
    if (!spans.tracer().WriteChromeTrace(args->trace_path)) {
      failures.push_back("cannot write " + args->trace_path);
    }
  }

  std::string why;
  if (!workload->CheckRun(&why)) failures.push_back(why);
  if (totals.failed > 0) {
    failures.push_back(std::to_string(totals.failed) + " ops failed their checks");
  }
  for (const auto& failure : failures) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", args->workload.c_str(),
                 failure.c_str());
  }
  const bool correct = failures.empty();

  std::fprintf(stderr, "%s seed %" PRIu64 ": %" PRIu64 " ops in %.2f s, digest 0x%08x\n",
               args->workload.c_str(), args->seed, totals.attempted, totals.wall_s,
               totals.digest);
  for (const auto& metric : metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }

  if (!args->json_path.empty()) {
    std::FILE* f = std::fopen(args->json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args->json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"correct\": %s, \"digest\": \"0x%08x\", \"host\": "
                 "{\"build_type\": \"%s\", \"compiler\": \"%s\", "
                 "\"gf_backend\": \"%s\", \"nproc\": %u}, ",
                 correct ? "true" : "false", totals.digest, PPR_BENCH_BUILD_TYPE,
                 __VERSION__,
                 std::string(fec::GfImplName(fec::GfActiveImpl())).c_str(),
                 std::thread::hardware_concurrency());
    if (traced) std::fprintf(f, "\"ladder_digest\": \"0x%08x\", ", ladder_digest);
    std::fprintf(f, "\"metrics\": ");
    WriteMetricsJson(f, metrics);
    std::fprintf(f,
                 ", \"ops\": %" PRIu64 ", \"ops_failed\": %" PRIu64
                 ", \"seconds\": %.12g, \"seed\": %" PRIu64
                 ", \"trace\": %s, \"workload\": \"%s\"}\n",
                 totals.attempted, totals.failed, args->seconds, args->seed,
                 traced ? "true" : "false", args->workload.c_str());
    if (std::fclose(f) != 0) return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": ",
              correct ? "true" : "false", totals.attempted, totals.failed);
  WriteMetricsJson(stdout, metrics);
  std::printf("}\n");
  return correct ? 0 : 1;
}
