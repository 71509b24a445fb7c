#include "arq/link_sim.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"

namespace ppr::arq {
namespace {

BitVec RandomPayload(Rng& rng, std::size_t octets) {
  BitVec bits;
  for (std::size_t i = 0; i < octets * 8; ++i) {
    bits.PushBack(rng.Bernoulli(0.5));
  }
  return bits;
}

TEST(ChipErrorChannelTest, CleanChannelIsTransparent) {
  const phy::ChipCodebook cb;
  Rng rng(171);
  auto channel = MakeChipErrorChannel(cb, 0.0, rng);
  Rng prng(172);
  const BitVec payload = RandomPayload(prng, 50);
  const auto symbols = channel(payload);
  ASSERT_EQ(symbols.size(), payload.size() / 4);
  EXPECT_EQ(SymbolsToLogicalBits(symbols), payload);
  for (const auto& s : symbols) EXPECT_EQ(s.hamming_distance, 0);
}

TEST(ChipErrorChannelTest, ErrorsScaleWithRate) {
  const phy::ChipCodebook cb;
  Rng rng(173);
  Rng prng(174);
  const BitVec payload = RandomPayload(prng, 2000);

  auto count_symbol_errors = [&](double p) {
    auto channel = MakeChipErrorChannel(cb, p, rng);
    const auto symbols = channel(payload);
    std::size_t errors = 0;
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      if (symbols[i].symbol != payload.ReadUint(i * 4, 4)) ++errors;
    }
    return errors;
  };
  const auto low = count_symbol_errors(0.05);
  const auto high = count_symbol_errors(0.3);
  EXPECT_LT(low, high);
  EXPECT_EQ(count_symbol_errors(0.0), 0u);
}

TEST(PpArqExchangeTest, SucceedsOverCleanChannel) {
  const phy::ChipCodebook cb;
  Rng rng(175);
  auto channel = MakeChipErrorChannel(cb, 0.0, rng);
  Rng prng(176);
  const auto stats =
      RunPpArqExchange(RandomPayload(prng, 200), PpArqConfig{}, channel);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.data_transmissions, 1u);
  EXPECT_TRUE(stats.retransmission_bits.empty());
}

TEST(PpArqExchangeTest, ConvergesOverNoisyChannel) {
  const phy::ChipCodebook cb;
  Rng rng(177);
  auto channel = MakeChipErrorChannel(cb, 0.12, rng);
  Rng prng(178);
  const auto stats =
      RunPpArqExchange(RandomPayload(prng, 500), PpArqConfig{}, channel);
  EXPECT_TRUE(stats.success);
  EXPECT_GE(stats.data_transmissions, 1u);
}

TEST(PpArqExchangeTest, ConvergesOverBurstyChannel) {
  const phy::ChipCodebook cb;
  Rng rng(179);
  GilbertElliottParams params;
  params.p_good_to_bad = 0.02;
  params.p_bad_to_good = 0.15;
  params.chip_error_bad = 0.25;
  auto channel = MakeGilbertElliottChannel(cb, params, rng);
  Rng prng(180);
  const auto stats =
      RunPpArqExchange(RandomPayload(prng, 500), PpArqConfig{}, channel);
  EXPECT_TRUE(stats.success);
}

TEST(PpArqExchangeTest, RetransmitsLessThanWholePacketOnBurstyChannel) {
  // The headline PP-ARQ property (Figure 16): retransmissions are a
  // fraction of the packet size, not the whole packet.
  const phy::ChipCodebook cb;
  Rng rng(181);
  GilbertElliottParams params;
  params.p_good_to_bad = 0.01;
  params.p_bad_to_good = 0.2;
  params.chip_error_bad = 0.3;
  auto channel = MakeGilbertElliottChannel(cb, params, rng);
  Rng prng(182);

  const std::size_t payload_octets = 500;
  std::size_t total_retx_bits = 0;
  std::size_t retx_count = 0;
  for (int i = 0; i < 20; ++i) {
    const auto stats = RunPpArqExchange(RandomPayload(prng, payload_octets),
                                        PpArqConfig{}, channel);
    EXPECT_TRUE(stats.success);
    for (const auto bits : stats.retransmission_bits) {
      total_retx_bits += bits;
      ++retx_count;
    }
  }
  if (retx_count > 0) {
    const double mean_retx =
        static_cast<double>(total_retx_bits) / static_cast<double>(retx_count);
    EXPECT_LT(mean_retx, payload_octets * 8 / 2.0)
        << "PP-ARQ retransmissions should be far below the packet size";
  }
}

TEST(WholePacketArqTest, SucceedsFirstTryOnCleanChannel) {
  const phy::ChipCodebook cb;
  Rng rng(183);
  auto channel = MakeChipErrorChannel(cb, 0.0, rng);
  Rng prng(184);
  const auto stats = RunWholePacketArq(RandomPayload(prng, 100), channel);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.data_transmissions, 1u);
}

TEST(WholePacketArqTest, RetriesUntilCleanCopy) {
  const phy::ChipCodebook cb;
  Rng rng(185);
  // At this chip error rate some codewords decode wrong, so whole
  // packets need occasional retries; aggregate over several packets so
  // at least one retry is overwhelmingly likely.
  auto channel = MakeChipErrorChannel(cb, 0.12, rng);
  Rng prng(186);
  std::size_t total_transmissions = 0;
  const int packets = 10;
  for (int i = 0; i < packets; ++i) {
    const auto stats = RunWholePacketArq(RandomPayload(prng, 60), channel,
                                         /*max_rounds=*/500);
    EXPECT_TRUE(stats.success);
    total_transmissions += stats.data_transmissions;
  }
  EXPECT_GT(total_transmissions, static_cast<std::size_t>(packets));
}

TEST(ArqComparisonTest, PpArqBeatsWholePacketOnRetransmittedBits) {
  // The motivating claim of the paper: under partial corruption,
  // retransmitting only bad runs costs far fewer bits than
  // retransmitting whole packets.
  const phy::ChipCodebook cb;
  GilbertElliottParams params;
  params.p_good_to_bad = 0.002;  // ~1 burst per 500 codewords
  params.p_bad_to_good = 0.15;
  params.chip_error_bad = 0.3;
  Rng prng(191);
  const std::size_t octets = 200;
  std::size_t pp_forward = 0, wp_forward = 0;
  int pp_fail = 0, wp_fail = 0;
  for (int i = 0; i < 15; ++i) {
    const BitVec payload = RandomPayload(prng, octets);
    Rng rng_a(1000 + i), rng_b(1000 + i);
    auto chan_a = MakeGilbertElliottChannel(cb, params, rng_a);
    auto chan_b = MakeGilbertElliottChannel(cb, params, rng_b);
    const auto pp = RunPpArqExchange(payload, PpArqConfig{}, chan_a, 64);
    const auto wp = RunWholePacketArq(payload, chan_b, 1000);
    if (!pp.success) ++pp_fail;
    if (!wp.success) ++wp_fail;
    pp_forward += pp.forward_bits;
    wp_forward += wp.forward_bits;
  }
  EXPECT_EQ(pp_fail, 0);
  EXPECT_EQ(wp_fail, 0);
  EXPECT_LT(pp_forward, wp_forward);
}

}  // namespace
}  // namespace ppr::arq
