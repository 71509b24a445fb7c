#include "ppr/receiver_pipeline.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "common/crc.h"
#include "common/rng.h"
#include "phy/channel.h"

namespace ppr::core {
namespace {

PipelineConfig TestConfig() {
  PipelineConfig config;
  config.modem.samples_per_chip = 4;
  config.max_payload_octets = 256;
  return config;
}

std::vector<std::uint8_t> RandomPayload(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> payload(n);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  return payload;
}

frame::FrameHeader MakeHeader(std::size_t len, std::uint16_t seq = 1) {
  frame::FrameHeader h;
  h.length = static_cast<std::uint16_t>(len);
  h.dst = 0xD;
  h.src = 0x5;
  h.seq = seq;
  return h;
}

TEST(ReceiverPipelineTest, CleanFrameRecoveredViaPreamble) {
  const auto config = TestConfig();
  const FrameModulator mod(config.modem);
  const ReceiverPipeline rx(config);
  Rng rng(201);

  const auto payload = RandomPayload(rng, 60);
  const auto wave = mod.Modulate(MakeHeader(60), payload);

  phy::SampleVec air(wave.size() + 800, phy::Sample{0.0, 0.0});
  phy::MixInto(air, wave, 400);

  const auto frames = rx.Process(air);
  ASSERT_EQ(frames.size(), 1u);
  const auto& f = frames[0];
  EXPECT_EQ(f.sync, RecoveredFrame::SyncSource::kPreamble);
  EXPECT_EQ(f.frame_start_sample, 400);
  EXPECT_EQ(f.header, MakeHeader(60));
  EXPECT_FALSE(f.header_from_trailer);

  const BitVec bits = f.PayloadBits();
  EXPECT_EQ(bits.ToBytes(), payload);
  for (const auto& s : f.body_symbols) {
    EXPECT_EQ(s.hamming_distance, 0);
  }
}

TEST(ReceiverPipelineTest, RecoversUnderModerateNoise) {
  const auto config = TestConfig();
  const FrameModulator mod(config.modem);
  const ReceiverPipeline rx(config);
  Rng rng(202);

  const auto payload = RandomPayload(rng, 100);
  const auto wave = mod.Modulate(MakeHeader(100), payload);
  phy::SampleVec air(wave.size() + 600, phy::Sample{0.0, 0.0});
  phy::MixInto(air, wave, 300);
  // 6 dB chip SNR: chip errors ~2e-3, codewords decode fine.
  const double sigma = phy::NoiseSigmaForEcN0(std::pow(10.0, 0.6), 1.0, 4);
  phy::AddAwgn(air, sigma, rng);

  const auto frames = rx.Process(air);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].PayloadBits().ToBytes(), payload);
}

TEST(ReceiverPipelineTest, PostambleRecoversFrameWithDestroyedPreamble) {
  // Obliterate the preamble region with a strong interfering burst:
  // the preamble path fails, the postamble path must roll back and
  // recover the frame (the section 4 scenario).
  const auto config = TestConfig();
  const FrameModulator mod(config.modem);
  const ReceiverPipeline rx(config);
  Rng rng(203);

  const auto payload = RandomPayload(rng, 80);
  const auto wave = mod.Modulate(MakeHeader(80), payload);
  phy::SampleVec air(wave.size() + 1000, phy::Sample{0.0, 0.0});
  phy::MixInto(air, wave, 500);

  // Jam the first 15 octets of the frame (preamble+SFD+header) with
  // noise at ~10x the signal power; the payload stays clean.
  const std::size_t jam_len = 15 * 64 * 4;
  for (std::size_t i = 500; i < 500 + jam_len; ++i) {
    air[i] += phy::Sample{rng.Normal(0.0, 3.0), rng.Normal(0.0, 3.0)};
  }

  const auto frames = rx.Process(air);
  ASSERT_EQ(frames.size(), 1u);
  const auto& f = frames[0];
  EXPECT_EQ(f.sync, RecoveredFrame::SyncSource::kPostamble);
  EXPECT_TRUE(f.header_from_trailer);
  EXPECT_EQ(f.header, MakeHeader(80));

  // The payload (outside the jammed region) must be intact.
  EXPECT_EQ(f.PayloadBits().ToBytes(), payload);
  // The jammed header codewords carry high Hamming hints: SoftPHY marks
  // them bad rather than silently delivering garbage.
  double head_hint = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    head_hint += f.body_symbols[i].hint;
  }
  EXPECT_GT(head_hint / 10.0, 6.0);
}

TEST(ReceiverPipelineTest, PreambleFrameNotDuplicatedByPostamble) {
  const auto config = TestConfig();
  const FrameModulator mod(config.modem);
  const ReceiverPipeline rx(config);
  Rng rng(204);
  const auto payload = RandomPayload(rng, 40);
  const auto wave = mod.Modulate(MakeHeader(40), payload);
  phy::SampleVec air(wave.size() + 400, phy::Sample{0.0, 0.0});
  phy::MixInto(air, wave, 200);
  // Both sync paths find the frame: its preamble at 200, its postamble
  // where the layout puts it.
  const std::size_t postamble =
      200 + frame::FrameLayout(40).PostambleOffset() * 2 *
                phy::kChipsPerSymbol * config.modem.samples_per_chip;
  ASSERT_GT(rx.PreambleScoreAt(air, 200), config.sync_threshold);
  ASSERT_GT(rx.PostambleScoreAt(air, postamble), config.sync_threshold);
  const auto frames = rx.Process(air);
  // Reported exactly once, from the preamble path.
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].sync, RecoveredFrame::SyncSource::kPreamble);
  EXPECT_EQ(frames[0].frame_start_sample, 200);
  EXPECT_EQ(frames[0].PayloadBits().ToBytes(), payload);
}

TEST(ReceiverPipelineTest, TwoBackToBackFramesBothRecovered) {
  const auto config = TestConfig();
  const FrameModulator mod(config.modem);
  const ReceiverPipeline rx(config);
  Rng rng(205);

  const auto p1 = RandomPayload(rng, 50);
  const auto p2 = RandomPayload(rng, 70);
  const auto w1 = mod.Modulate(MakeHeader(50, 1), p1);
  const auto w2 = mod.Modulate(MakeHeader(70, 2), p2);

  phy::SampleVec air(w1.size() + w2.size() + 1500, phy::Sample{0.0, 0.0});
  phy::MixInto(air, w1, 300);
  phy::MixInto(air, w2, 300 + w1.size() + 600);

  const auto frames = rx.Process(air);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].header.seq, 1u);
  EXPECT_EQ(frames[1].header.seq, 2u);
  EXPECT_EQ(frames[0].PayloadBits().ToBytes(), p1);
  EXPECT_EQ(frames[1].PayloadBits().ToBytes(), p2);
}

TEST(ReceiverPipelineTest, CollisionAnatomyBothPartialsRecovered) {
  // The Figure 5 / Figure 13 scenario: a strong frame is being
  // received when a weaker frame starts underneath it (near-far). The
  // strong frame is preamble-synced; the weak frame's preamble and
  // header are buried (SIR -6 dB), so only its postamble — transmitted
  // after the strong frame ended — can recover it, partially.
  const auto config = TestConfig();
  const FrameModulator mod(config.modem);
  const ReceiverPipeline rx(config);
  Rng rng(206);

  const auto p1 = RandomPayload(rng, 120);
  const auto p2 = RandomPayload(rng, 120);
  auto w1 = mod.Modulate(MakeHeader(120, 1), p1);
  auto w2 = mod.Modulate(MakeHeader(120, 2), p2);
  // Independent carrier phases, as for two unsynchronized senders.
  phy::ApplyCarrierOffset(w1, 0.0, 0.9);
  phy::ApplyCarrierOffset(w2, 0.0, 3.7);
  phy::ApplyGain(w1, 2.0);  // +6 dB: the nearby sender

  phy::SampleVec air;
  const std::size_t start1 = 400;
  // Overlap: packet 2 starts 60% into packet 1.
  const std::size_t start2 = start1 + (w1.size() * 3) / 5;
  air.assign(start2 + w2.size() + 400, phy::Sample{0.0, 0.0});
  phy::MixInto(air, w1, start1);
  phy::MixInto(air, w2, start2);

  const auto frames = rx.Process(air);
  ASSERT_EQ(frames.size(), 2u);

  const auto& f1 = frames[0];
  const auto& f2 = frames[1];
  EXPECT_EQ(f1.sync, RecoveredFrame::SyncSource::kPreamble);
  EXPECT_EQ(f1.header.seq, 1u);
  EXPECT_EQ(f2.sync, RecoveredFrame::SyncSource::kPostamble);
  EXPECT_EQ(f2.header.seq, 2u);

  // The weak frame's buried head carries high hints; its clean tail
  // decodes confidently and correctly.
  auto mean_hint = [](const std::vector<phy::DecodedSymbol>& symbols,
                      std::size_t from, std::size_t to) {
    double acc = 0.0;
    for (std::size_t i = from; i < to; ++i) acc += symbols[i].hint;
    return acc / static_cast<double>(to - from);
  };
  const std::size_t n2 = f2.body_symbols.size();
  EXPECT_GT(mean_hint(f2.body_symbols, 0, n2 / 3), 4.0);
  EXPECT_LT(mean_hint(f2.body_symbols, (2 * n2) / 3, n2), 1.0);

  // Tail payload bytes of the weak frame match ground truth.
  const auto payload_symbols = f2.PayloadSymbols();
  ASSERT_EQ(payload_symbols.size(), 240u);
  for (std::size_t i = 200; i < 240; ++i) {
    const std::uint8_t true_nibble =
        (i % 2 == 0) ? (p2[i / 2] >> 4) : (p2[i / 2] & 0xF);
    EXPECT_EQ(payload_symbols[i].symbol, true_nibble) << "nibble " << i;
  }

  // The strong frame survives its overlap region largely intact (+6 dB
  // SIR with DSSS processing gain), with at most mildly elevated hints.
  const std::size_t n1 = f1.body_symbols.size();
  EXPECT_LT(mean_hint(f1.body_symbols, 0, n1 / 3), 1.0);
  EXPECT_LT(mean_hint(f1.body_symbols, (2 * n1) / 3, n1), 6.0);
}

TEST(ReceiverPipelineTest, OversizedLengthFieldRejected) {
  // A frame whose header length exceeds the configured maximum must be
  // rejected rather than trigger a huge rollback.
  auto config = TestConfig();
  config.max_payload_octets = 64;
  const FrameModulator mod(config.modem);
  const ReceiverPipeline rx(config);
  Rng rng(207);
  const auto payload = RandomPayload(rng, 100);  // > max
  const auto wave = mod.Modulate(MakeHeader(100), payload);
  phy::SampleVec air(wave.size() + 400, phy::Sample{0.0, 0.0});
  phy::MixInto(air, wave, 200);
  EXPECT_TRUE(rx.Process(air).empty());
}

TEST(ReceiverPipelineTest, FrameStartingBeforeCaptureKeepsItsStart) {
  // The capture begins inside a frame's preamble: only the postamble
  // path sees the frame, and its rollback lands before sample 0.
  const auto config = TestConfig();
  const FrameModulator mod(config.modem);
  const ReceiverPipeline rx(config);
  Rng rng(212);
  const auto payload = RandomPayload(rng, 60);
  const auto wave = mod.Modulate(MakeHeader(60), payload);
  phy::SampleVec air(wave.size() + 600, phy::Sample{0.0, 0.0});
  phy::MixInto(air, wave, 200);
  for (const std::int64_t cut : {1000, 2000}) {
    const phy::SampleVec capture(air.begin() + cut, air.end());
    const auto frames = rx.Process(capture);
    ASSERT_EQ(frames.size(), 1u) << "cut " << cut;
    EXPECT_EQ(frames[0].sync, RecoveredFrame::SyncSource::kPostamble);
    EXPECT_EQ(frames[0].frame_start_sample, 200 - cut);
    EXPECT_EQ(frames[0].header, MakeHeader(60));
    EXPECT_EQ(frames[0].PayloadBits().ToBytes(), payload) << "cut " << cut;
  }
}

// Whatever a capture holds, every frame Process reports has a length
// within the configured maximum and one decoded body of that length.
void ExpectWellFormed(const std::vector<RecoveredFrame>& frames,
                      const PipelineConfig& config, const std::string& what) {
  for (const auto& f : frames) {
    ASSERT_LE(f.header.length, config.max_payload_octets) << what;
    EXPECT_EQ(f.body_symbols.size(),
              frame::FrameLayout(f.header.length).BodyOctets() * 2)
        << what;
  }
}

TEST(ReceiverPipelineTest, HostileCapturesYieldWellFormedFrames) {
  const auto config = TestConfig();
  const FrameModulator mod(config.modem);
  const ReceiverPipeline rx(config);
  Rng rng(213);
  // Lengths around the sync pattern's M samples and the FFT block of
  // bit_ceil(2M) samples sync correlates in.
  const std::size_t m =
      mod.ModulateOctets(frame::PreamblePatternOctets()).size();
  const std::size_t block = std::bit_ceil(2 * m);
  for (const std::size_t length :
       {std::size_t{0}, std::size_t{1}, m - 1, m, m + 1, 2 * block - 1,
        2 * block, 2 * block + 1}) {
    phy::SampleVec air(length, phy::Sample{0.0, 0.0});
    phy::AddAwgn(air, rng.UniformDouble(0.1, 2.0), rng);
    ExpectWellFormed(rx.Process(air), config,
                     "random, length " + std::to_string(length));
  }

  // One frame, cut at the front or at the back at 21 evenly spaced
  // points, both ends of the capture included.
  const auto payload = RandomPayload(rng, 40);
  const auto wave = mod.Modulate(MakeHeader(40), payload);
  phy::SampleVec air(wave.size() + 600, phy::Sample{0.0, 0.0});
  phy::MixInto(air, wave, 300);
  phy::AddAwgn(air, 0.2, rng);
  ASSERT_EQ(rx.Process(air).size(), 1u);
  for (std::size_t k = 0; k <= 20; ++k) {
    const auto cut = static_cast<std::ptrdiff_t>(k * air.size() / 20);
    ExpectWellFormed(rx.Process(phy::SampleVec(air.begin() + cut, air.end())),
                     config, "front cut " + std::to_string(cut));
    ExpectWellFormed(rx.Process(phy::SampleVec(air.begin(), air.begin() + cut)),
                     config, "back cut " + std::to_string(cut));
  }
}

TEST(ReceiverPipelineTest, EmptyAirYieldsNothing) {
  const ReceiverPipeline rx(TestConfig());
  Rng rng(208);
  phy::SampleVec air(20000, phy::Sample{0.0, 0.0});
  phy::AddAwgn(air, 0.5, rng);
  EXPECT_TRUE(rx.Process(air).empty());
}

}  // namespace
}  // namespace ppr::core
