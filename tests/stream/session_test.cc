#include "stream/session.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/bitvec.h"
#include "common/crc.h"
#include "common/rng.h"
#include "phy/chip_sequences.h"

namespace ppr::stream {
namespace {

// Lossless transport: every nibble decodes verbatim.
arq::BodyChannel CleanChannel() {
  return [](const BitVec& bits) {
    std::vector<phy::DecodedSymbol> symbols;
    for (std::size_t i = 0; i + 4 <= bits.size(); i += 4) {
      phy::DecodedSymbol s;
      s.symbol = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
      symbols.push_back(s);
    }
    return symbols;
  };
}

// Deterministically erases every `period`-th frame (1-indexed) by
// corrupting its codewords so the CRC rejects it.
arq::BodyChannel PeriodicErasureChannel(std::size_t period) {
  auto counter = std::make_shared<std::size_t>(0);
  return [counter, period](const BitVec& bits) {
    const bool erase = ++*counter % period == 0;
    std::vector<phy::DecodedSymbol> symbols;
    for (std::size_t i = 0; i + 4 <= bits.size(); i += 4) {
      phy::DecodedSymbol s;
      s.symbol = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
      if (erase) s.symbol ^= 0xF;
      symbols.push_back(s);
    }
    return symbols;
  };
}

StreamSessionConfig SmallConfig() {
  StreamSessionConfig config;
  config.window_capacity = 16;
  config.symbol_bytes = 16;
  config.total_packets = 120;
  return config;
}

TEST(StreamSessionTest, CleanChannelDeliversEverythingWithoutRepair) {
  const auto config = SmallConfig();
  const auto controller = MakeAckDeficitController();
  const auto stats = RunStreamSession(config, *controller, CleanChannel());
  EXPECT_EQ(stats.delivered, config.total_packets);
  EXPECT_EQ(stats.undelivered, 0u);
  EXPECT_EQ(stats.recovered, 0u);
  EXPECT_EQ(stats.payload_mismatches, 0u);
  // No loss reported, so the reactive controller never spends a repair
  // bit.
  EXPECT_EQ(stats.repair_sent, 0u);
  EXPECT_EQ(stats.latency_us.count, config.total_packets);
}

TEST(StreamSessionTest, LossyChannelRecoversEverything) {
  const auto config = SmallConfig();
  for (const auto make : {&MakeAckDeficitController}) {
    const auto controller = (*make)({});
    const auto stats =
        RunStreamSession(config, *controller, PeriodicErasureChannel(5));
    EXPECT_EQ(stats.delivered, config.total_packets);
    EXPECT_EQ(stats.undelivered, 0u);
    EXPECT_GT(stats.recovered, 0u);
    EXPECT_GT(stats.repair_sent, 0u);
    EXPECT_EQ(stats.payload_mismatches, 0u);
    EXPECT_GT(stats.source_frames_lost + stats.repair_frames_lost, 0u);
  }
}

TEST(StreamSessionTest, DeadlineControllerAlsoCompletesLossyFlow) {
  const auto config = SmallConfig();
  const auto controller = MakeDeadlineController();
  const auto stats =
      RunStreamSession(config, *controller, PeriodicErasureChannel(4));
  EXPECT_EQ(stats.delivered, config.total_packets);
  EXPECT_EQ(stats.payload_mismatches, 0u);
  EXPECT_GT(stats.recovered, 0u);
}

TEST(StreamSessionTest, DeterministicAcrossRuns) {
  const auto config = SmallConfig();
  const auto run = [&] {
    const auto controller = MakeDeadlineController();
    return RunStreamSession(config, *controller, PeriodicErasureChannel(4));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.repair_sent, b.repair_sent);
  EXPECT_EQ(a.source_bits, b.source_bits);
  EXPECT_EQ(a.repair_bits, b.repair_bits);
  EXPECT_EQ(a.finished_at_us, b.finished_at_us);
  EXPECT_EQ(a.latency_us, b.latency_us);
  EXPECT_EQ(a.recovered_latency_us, b.recovered_latency_us);
}

TEST(StreamSessionTest, RecoveredPacketsPayMoreLatency) {
  const auto config = SmallConfig();
  const auto controller = MakeAckDeficitController();
  const auto stats =
      RunStreamSession(config, *controller, PeriodicErasureChannel(5));
  ASSERT_GT(stats.recovered_latency_us.count, 0u);
  // A recovered packet waited for at least one feedback round; a clean
  // one only pays airtime + propagation.
  EXPECT_GT(stats.recovered_latency_us.ValueAtQuantile(0.5),
            stats.latency_us.ValueAtQuantile(0.1));
}

TEST(StreamSessionTest, BackpressureEngagesWhenWindowOutrunsAcks) {
  StreamSessionConfig config = SmallConfig();
  config.window_capacity = 4;
  config.packet_interval_us = 200;       // source much faster than feedback
  config.feedback_interval_us = 20'000;
  const auto controller = MakeAckDeficitController();
  const auto stats = RunStreamSession(config, *controller, CleanChannel());
  EXPECT_GT(stats.backpressure_stalls, 0u);
  EXPECT_EQ(stats.delivered, config.total_packets);
  EXPECT_EQ(stats.payload_mismatches, 0u);
}

// A perfect channel that rewrites the first repair frame the source
// sends and re-seals its CRC-32, so the destination receives a
// CRC-valid frame it must reject: kUndefinedType turns it into a
// type-2 frame in the source layout, kZeroSpan zeroes its span.
enum class Tamper { kUndefinedType, kZeroSpan };

arq::BodyChannel TamperFirstRepairChannel(Tamper tamper,
                                          std::size_t symbol_bytes) {
  auto tampered = std::make_shared<bool>(false);
  return [tampered, tamper, symbol_bytes,
          clean = CleanChannel()](const BitVec& bits) {
    // Repair layout: type (2) | first_id (16) | span (16) | seed (32) |
    // payload | crc32, zero-padded to whole codewords.
    constexpr std::size_t kRepairHeaderBits = 2 + 16 + 16 + 32;
    if (*tampered || bits.ReadUint(0, 2) != 1) return clean(bits);
    *tampered = true;
    const std::size_t payload_bits = symbol_bytes * 8;
    BitVec body;
    if (tamper == Tamper::kUndefinedType) {
      body.AppendUint(2, 2);
      body.AppendBits(bits.Slice(2, 16));
      body.AppendBits(bits.Slice(kRepairHeaderBits, payload_bits));
    } else {
      body = bits.Slice(0, kRepairHeaderBits + payload_bits);
      for (std::size_t i = 18; i < 34; ++i) body.Set(i, false);
    }
    body.AppendUint(Crc32Bits(body), 32);
    while (body.size() % 4 != 0) body.PushBack(false);
    return clean(body);
  };
}

// A CRC-valid frame of an undefined type, or a repair frame spanning
// nothing, is dropped and counted as lost like a CRC failure; it must
// not reach the decoders.
TEST(StreamSessionTest, MalformedCrcValidFrameCountsAsLost) {
  for (const auto tamper : {Tamper::kUndefinedType, Tamper::kZeroSpan}) {
    const StreamSessionConfig config = SmallConfig();
    const auto controller = MakeFixedRateController();
    const auto stats = RunStreamSession(
        config, *controller,
        TamperFirstRepairChannel(tamper, config.symbol_bytes));
    const std::string label =
        tamper == Tamper::kZeroSpan ? "zero-span" : "undefined-type";
    EXPECT_EQ(stats.delivered, config.total_packets) << label;
    EXPECT_EQ(stats.payload_mismatches, 0u) << label;
    EXPECT_EQ(stats.source_frames_lost, 0u) << label;
    EXPECT_EQ(stats.repair_frames_lost, 1u) << label;
  }
}

void AppendHistogram(BitVec& transcript, const obs::HistogramSnapshot& h) {
  transcript.AppendUint(h.count, 64);
  transcript.AppendUint(h.sum, 64);
  transcript.AppendUint(h.min, 64);
  transcript.AppendUint(h.max, 64);
  transcript.AppendUint(h.buckets.size(), 32);
  for (const std::uint64_t b : h.buckets) transcript.AppendUint(b, 64);
}

// Every StreamSessionStats field, latency snapshots included.
std::uint32_t StatsCrc(const StreamSessionStats& s) {
  BitVec transcript;
  for (const std::uint64_t v :
       {std::uint64_t{s.source_sent}, std::uint64_t{s.repair_sent},
        std::uint64_t{s.source_frames_lost},
        std::uint64_t{s.repair_frames_lost}, s.source_bits, s.repair_bits,
        s.feedback_bits, std::uint64_t{s.feedback_frames},
        std::uint64_t{s.delivered}, std::uint64_t{s.recovered},
        std::uint64_t{s.undelivered}, std::uint64_t{s.payload_mismatches},
        std::uint64_t{s.backpressure_stalls},
        std::uint64_t{s.decoder_stale_dropped},
        std::uint64_t{s.decoder_overflow_dropped},
        std::uint64_t{s.ambiguous_id_dropped}, s.finished_at_us}) {
    transcript.AppendUint(v, 64);
  }
  AppendHistogram(transcript, s.latency_us);
  AppendHistogram(transcript, s.recovered_latency_us);
  return Crc32Bits(transcript);
}

// Golden pins for the session's event loop: each controller on a
// seeded Gilbert-Elliott channel. The determinism tests above compare
// two runs of one build; these constants also catch a trajectory that
// changes from one version to the next.
TEST(StreamSessionTest, GoldenTrajectoriesPerController) {
  struct Pinned {
    ControllerKind controller;
    std::uint32_t crc;
  };
  const Pinned pinned[] = {
      {ControllerKind::kFixedRate, 0x524A944Fu},
      {ControllerKind::kAckDeficit, 0xB17E300Eu},
      {ControllerKind::kDeadline, 0x050A38FCu},
  };
  const phy::ChipCodebook codebook;
  arq::GilbertElliottParams params;
  params.p_good_to_bad = 0.01;
  params.p_bad_to_good = 0.2;
  params.chip_error_good = 0.001;
  params.chip_error_bad = 0.25;
  for (const Pinned& pin : pinned) {
    StreamSessionConfig config = SmallConfig();
    // Feedback slow enough that the deadline controller's protect
    // bursts fire, so its trajectory differs from ack-deficit's.
    config.feedback_interval_us = 20'000;
    Rng rng(0x5E55);
    const auto channel = arq::MakeGilbertElliottChannel(codebook, params, rng);
    const auto controller = MakeController(pin.controller);
    const auto stats = RunStreamSession(config, *controller, channel);
    const std::string label(ControllerKindName(pin.controller));
    EXPECT_EQ(stats.delivered, config.total_packets) << label;
    EXPECT_EQ(stats.payload_mismatches, 0u) << label;
    EXPECT_GT(stats.source_frames_lost, 0u) << label;
    EXPECT_GT(stats.recovered, 0u) << label;
    EXPECT_EQ(StatsCrc(stats), pin.crc)
        << label << " got 0x" << std::hex << StatsCrc(stats);
  }
}

}  // namespace
}  // namespace ppr::stream
