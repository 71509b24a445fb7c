#include "sim/receiver_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/crc.h"
#include "sim/topology.h"

namespace ppr::sim {
namespace {

// Two-node world: one sender at the origin, one receiver `d` meters
// away, no shadowing so SNR is exact.
struct TwoNodeWorld {
  std::vector<Point> positions;
  MediumConfig mconfig;

  explicit TwoNodeWorld(double d) {
    positions = {{0.0, 0.0}, {d, 0.0}};
    mconfig.shadowing_sigma_db = 0.0;
  }
};

// A Ricean K so large that fading is off: mu = sqrt(K / (K + 1)) rounds
// to 1 and sigma = sqrt(0.5 / (K + 1)) to 7e-151, so every block gain
// x^2 + y^2 is exactly 1.0 and each codeword sees the mean SINR.
constexpr double kNoFading = 1e300;

ReceiverModelConfig SmallFrames() {
  ReceiverModelConfig config;
  config.payload_octets = 100;
  config.seed = 7;
  // These tests exercise the SINR-driven decode logic in isolation;
  // the stochastic link impairments are covered by their own tests.
  config.impairment_rate = 0.0;
  config.good_chip_floor = 0.0;
  config.ricean_k = kNoFading;
  return config;
}

Transmission At(double start_s, std::size_t sender, std::uint16_t seq,
                double frame_chips) {
  Transmission t;
  t.sender = sender;
  t.seq = seq;
  t.start_s = start_s;
  t.duration_s = frame_chips * kSecondsPerChip;
  return t;
}

TEST(ReceiverModelTest, StrongLinkDecodesCleanly) {
  const TwoNodeWorld world(2.0);  // very strong link
  const RadioMedium medium(world.positions, world.mconfig);
  const ReceiverModel model(medium, SmallFrames());
  const double chips = static_cast<double>(model.Layout().TotalChips());

  std::vector<Transmission> schedule{At(0.0, 0, 0, chips)};
  int receptions = 0;
  model.ProcessReceiver(1, schedule, [&](const ReceptionRecord& r) {
    ++receptions;
    EXPECT_TRUE(r.preamble_sync);
    EXPECT_TRUE(r.postamble_sync);
    EXPECT_TRUE(r.header_ok);
    EXPECT_TRUE(r.trailer_ok);
    ASSERT_EQ(r.trace.size(), model.Layout().TotalSymbols());
    for (const auto& cw : r.trace) {
      EXPECT_TRUE(cw.correct);
      EXPECT_EQ(cw.distance, 0);
    }
  });
  EXPECT_EQ(receptions, 1);
}

TEST(ReceiverModelTest, InaudibleLinkSkipped) {
  const TwoNodeWorld world(500.0);  // way below the noise floor
  const RadioMedium medium(world.positions, world.mconfig);
  const ReceiverModel model(medium, SmallFrames());
  const double chips = static_cast<double>(model.Layout().TotalChips());
  std::vector<Transmission> schedule{At(0.0, 0, 0, chips)};
  int receptions = 0;
  model.ProcessReceiver(1, schedule,
                        [&](const ReceptionRecord&) { ++receptions; });
  EXPECT_EQ(receptions, 0);
}

TEST(ReceiverModelTest, MarginalLinkShowsElevatedDistances) {
  // Pick a distance where SNR sits near the decoding edge: hints must
  // spread upward and some codewords go wrong (the Figure 3 regime).
  const TwoNodeWorld world(55.0);
  const RadioMedium medium(world.positions, world.mconfig);
  const ReceiverModel model(medium, SmallFrames());
  // Sanity: the link is audible but weak.
  ASSERT_GT(medium.LinkSnrDb(0, 1), -2.0);
  ASSERT_LT(medium.LinkSnrDb(0, 1), 6.0);

  const double chips = static_cast<double>(model.Layout().TotalChips());
  std::vector<Transmission> schedule;
  for (std::uint16_t i = 0; i < 20; ++i) {
    schedule.push_back(
        At(i * 2.0 * chips * kSecondsPerChip, 0, i, chips));
  }
  std::size_t nonzero_hints = 0, total = 0, wrong = 0;
  model.ProcessReceiver(1, schedule, [&](const ReceptionRecord& r) {
    for (const auto& cw : r.trace) {
      ++total;
      if (cw.distance > 0) ++nonzero_hints;
      if (!cw.correct) ++wrong;
    }
  });
  ASSERT_GT(total, 0u);
  EXPECT_GT(nonzero_hints, total / 20);
}

TEST(ReceiverModelTest, CollisionCorruptsOverlapOnly) {
  // Sender 0 five meters out, sender 1 right next to the receiver (the
  // near-far situation that makes collisions fatal). The second
  // transmission overlaps the tail of the first: overlapped codewords
  // see strongly negative SIR and break; the head stays clean.
  std::vector<Point> positions{{0, 5}, {4.2, 5}, {5, 5}};
  MediumConfig mconfig;
  mconfig.shadowing_sigma_db = 0.0;
  const RadioMedium medium(positions, mconfig);
  const ReceiverModel model(medium, SmallFrames());
  const auto total_chips = static_cast<double>(model.Layout().TotalChips());
  const double frame_s = total_chips * kSecondsPerChip;

  std::vector<Transmission> schedule{
      At(0.0, 0, 0, total_chips),
      At(0.6 * frame_s, 1, 0, total_chips),
  };
  bool saw_first = false;
  model.ProcessReceiver(2, schedule, [&](const ReceptionRecord& r) {
    if (r.sender != 0) return;
    saw_first = true;
    EXPECT_TRUE(r.preamble_sync);
    const std::size_t n = r.trace.size();
    const auto overlap_start = static_cast<std::size_t>(0.6 * n);
    std::size_t head_wrong = 0, tail_wrong = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!r.trace[i].correct) {
        if (i < overlap_start) {
          ++head_wrong;
        } else {
          ++tail_wrong;
        }
      }
    }
    EXPECT_EQ(head_wrong, 0u);
    EXPECT_GT(tail_wrong, (n - overlap_start) / 4);
  });
  EXPECT_TRUE(saw_first);
}

TEST(ReceiverModelTest, LockedReceiverMissesSecondPreamble) {
  // Both packets fully overlap in time with the second starting inside
  // the first: the receiver preamble-locks the first and cannot
  // preamble-sync the second ("undesirable capture" unless postambles
  // are used).
  std::vector<Point> positions{{4, 5}, {6, 5}, {5, 5}};
  MediumConfig mconfig;
  mconfig.shadowing_sigma_db = 0.0;
  const RadioMedium medium(positions, mconfig);
  const ReceiverModel model(medium, SmallFrames());
  const auto total_chips = static_cast<double>(model.Layout().TotalChips());
  const double frame_s = total_chips * kSecondsPerChip;

  std::vector<Transmission> schedule{
      At(0.0, 0, 0, total_chips),
      At(0.3 * frame_s, 1, 0, total_chips),
  };
  bool second_seen = false;
  model.ProcessReceiver(2, schedule, [&](const ReceptionRecord& r) {
    if (r.sender != 1) return;
    second_seen = true;
    EXPECT_FALSE(r.preamble_sync);
    // Its tail extends past the first packet's end, so the postamble is
    // clean and recovers it.
    EXPECT_TRUE(r.postamble_sync);
    EXPECT_TRUE(r.trailer_ok);
  });
  EXPECT_TRUE(second_seen);
}

TEST(ReceiverModelTest, TruePatternIsDeterministicPerFrame) {
  const TwoNodeWorld world(2.0);
  const RadioMedium medium(world.positions, world.mconfig);
  const ReceiverModel model(medium, SmallFrames());
  const double chips = static_cast<double>(model.Layout().TotalChips());
  std::vector<Transmission> schedule{At(0.0, 0, 5, chips)};

  std::vector<std::uint8_t> first_run;
  model.ProcessReceiver(1, schedule, [&](const ReceptionRecord& r) {
    for (const auto& cw : r.trace) first_run.push_back(cw.true_symbol);
  });
  std::vector<std::uint8_t> second_run;
  model.ProcessReceiver(1, schedule, [&](const ReceptionRecord& r) {
    for (const auto& cw : r.trace) second_run.push_back(cw.true_symbol);
  });
  EXPECT_EQ(first_run, second_run);
  ASSERT_FALSE(first_run.empty());

  // Sync prefix symbols are the preamble pattern (zero symbols).
  EXPECT_EQ(first_run[0], 0u);
  EXPECT_EQ(first_run[7], 0u);
  // SFD 0xA7: low nibble 7 first.
  EXPECT_EQ(first_run[8], 0x7u);
  EXPECT_EQ(first_run[9], 0xAu);
}

TEST(ReceiverModelTest, ImpairmentBurstRateVariesPerLink) {
  // Different links draw burst-entry rates from a wide lognormal, so
  // error counts on otherwise-identical strong links differ heavily.
  std::vector<Point> positions{{0, 0}, {2, 0}, {4, 0}, {2, 2}};
  MediumConfig mconfig;
  mconfig.shadowing_sigma_db = 0.0;
  const RadioMedium medium(positions, mconfig);
  ReceiverModelConfig config;
  config.payload_octets = 200;
  config.seed = 7;
  config.ricean_k = kNoFading;  // isolate the impairment process
  config.impairment_rate = 2e-3;  // make bursts common enough to count
  const ReceiverModel model(medium, config);
  const double chips = static_cast<double>(model.Layout().TotalChips());

  // Senders 0..2 each transmit 40 frames; receiver is node 3.
  std::vector<Transmission> schedule;
  for (std::uint16_t f = 0; f < 40; ++f) {
    for (std::uint16_t i = 0; i < 3; ++i) {
      schedule.push_back(At((f * 3.0 + i) * 1.5 * chips * kSecondsPerChip, i,
                            f, chips));
    }
  }
  std::map<std::size_t, std::size_t> wrong;
  model.ProcessReceiver(3, schedule, [&](const ReceptionRecord& r) {
    for (const auto& cw : r.trace) {
      if (!cw.correct) ++wrong[r.sender];
    }
  });
  ASSERT_EQ(wrong.size(), 3u);
  std::size_t lo = SIZE_MAX, hi = 0;
  for (const auto& [sender, n] : wrong) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_GT(hi, 2 * std::max<std::size_t>(lo, 1));
}

TEST(ReceiverModelTest, ImpairmentBurstsAreContiguous) {
  // In-burst codewords cluster: the error process is bursty, not iid.
  const TwoNodeWorld world(2.0);
  const RadioMedium medium(world.positions, world.mconfig);
  ReceiverModelConfig config;
  config.payload_octets = 1500;
  config.seed = 9;
  config.ricean_k = kNoFading;
  config.impairment_rate = 3e-3;
  config.impairment_spread_sigma = 0.0;  // same rate for the one link
  config.good_chip_floor = 0.0;
  const ReceiverModel model(medium, config);
  const double chips = static_cast<double>(model.Layout().TotalChips());
  std::vector<Transmission> schedule;
  for (std::uint16_t i = 0; i < 10; ++i) {
    schedule.push_back(At(i * 1.5 * chips * kSecondsPerChip, 0, i, chips));
  }
  std::size_t wrong = 0, wrong_adjacent = 0, total = 0;
  model.ProcessReceiver(1, schedule, [&](const ReceptionRecord& r) {
    for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
      ++total;
      if (!r.trace[i].correct) {
        ++wrong;
        if (!r.trace[i + 1].correct) ++wrong_adjacent;
      }
    }
  });
  ASSERT_GT(wrong, 30u);
  const double marginal = static_cast<double>(wrong) / total;
  const double conditional =
      static_cast<double>(wrong_adjacent) / static_cast<double>(wrong);
  EXPECT_GT(conditional, 5.0 * marginal);
}

TEST(ReceiverModelTest, FadingCreatesBurstyErrorsOnMarginalLink) {
  // Block fading must produce contiguous stretches of elevated hints
  // rather than uniformly sprinkled errors.
  const TwoNodeWorld world(40.0);
  const RadioMedium medium(world.positions, world.mconfig);
  ReceiverModelConfig config;
  config.payload_octets = 1500;  // ~49 ms frame, several fade segments
  config.seed = 7;
  config.impairment_rate = 0.0;
  config.good_chip_floor = 0.0;
  config.ricean_k = 0.5;  // deep fades
  const ReceiverModel model(medium, config);
  const double chips = static_cast<double>(model.Layout().TotalChips());
  std::vector<Transmission> schedule;
  for (std::uint16_t i = 0; i < 10; ++i) {
    schedule.push_back(At(i * 2.0 * chips * kSecondsPerChip, 0, i, chips));
  }
  std::size_t wrong = 0, wrong_adjacent = 0, total = 0;
  model.ProcessReceiver(1, schedule, [&](const ReceptionRecord& r) {
    for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
      ++total;
      if (!r.trace[i].correct) {
        ++wrong;
        if (!r.trace[i + 1].correct) ++wrong_adjacent;
      }
    }
  });
  ASSERT_GT(wrong, 50u);
  // Burstiness: the probability that the codeword after a wrong one is
  // also wrong must far exceed the marginal error rate.
  const double marginal = static_cast<double>(wrong) / total;
  const double conditional =
      static_cast<double>(wrong_adjacent) / static_cast<double>(wrong);
  EXPECT_GT(conditional, 3.0 * marginal);
}

// Every bit the delivery schemes read from a reception: the sync,
// header and trailer flags, then each codeword's decoded symbol, hint
// and correct flag.
void AppendRecordBytes(const ReceptionRecord& r,
                       std::vector<std::uint8_t>& bytes) {
  bytes.push_back(static_cast<std::uint8_t>(r.sender));
  bytes.push_back(static_cast<std::uint8_t>(r.seq));
  bytes.push_back(static_cast<std::uint8_t>(
      r.preamble_sync | (r.postamble_sync << 1) | (r.header_ok << 2) |
      (r.trailer_ok << 3)));
  for (const auto& cw : r.trace) {
    bytes.push_back(cw.symbol);
    bytes.push_back(cw.distance);
    bytes.push_back(cw.correct ? 1 : 0);
  }
}

TEST(ReceiverModelTest, DenseScheduleTracesArePinned) {
  // Four senders around two receivers, each sending 12 frames at
  // random starts in a window 24 frames long, so most frames overlap
  // others, each 13 ms frame crosses fading segments, and impairment
  // bursts are common. The CRC covers every record of both receivers.
  // It pins the chip-decision loop (fading, SINR, chip errors,
  // despreading): a change meant to keep behaviour leaves it alone.
  const std::vector<Point> positions{{0, 0},  {30, 4}, {8, 26},
                                     {36, 30}, {18, 14}, {22, 18}};
  MediumConfig mconfig;
  mconfig.seed = 5;
  const RadioMedium medium(positions, mconfig);
  ReceiverModelConfig config;
  config.payload_octets = 400;
  config.seed = 11;
  config.impairment_rate = 3e-3;
  const ReceiverModel model(medium, config);
  const double chips = static_cast<double>(model.Layout().TotalChips());
  const double frame_s = chips * kSecondsPerChip;

  Rng rng(3);
  std::vector<Transmission> schedule;
  for (std::size_t sender = 0; sender < 4; ++sender) {
    for (std::uint16_t seq = 0; seq < 12; ++seq) {
      schedule.push_back(At(rng.UniformDouble(0.0, 24.0 * frame_s), sender,
                            seq, chips));
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Transmission& a, const Transmission& b) {
              return a.start_s < b.start_s;
            });

  std::vector<std::uint8_t> bytes;
  std::size_t receptions = 0, preamble_syncs = 0, wrong = 0;
  for (std::size_t receiver : {4u, 5u}) {
    model.ProcessReceiver(receiver, schedule, [&](const ReceptionRecord& r) {
      ++receptions;
      if (r.preamble_sync) ++preamble_syncs;
      for (const auto& cw : r.trace) {
        if (!cw.correct) ++wrong;
      }
      AppendRecordBytes(r, bytes);
    });
  }
  // The schedule must exercise what it pins: syncs both held and
  // lost, and broken codewords.
  EXPECT_EQ(receptions, 96u);
  EXPECT_GT(preamble_syncs, 10u);
  EXPECT_LT(preamble_syncs, receptions - 10);
  EXPECT_GT(wrong, 10000u);
  EXPECT_EQ(Crc32(bytes), 0xD40E3728u);
}

TEST(ReceiverModelTest, PayloadRangesConsistentWithLayout) {
  const TwoNodeWorld world(2.0);
  const RadioMedium medium(world.positions, world.mconfig);
  const ReceiverModel model(medium, SmallFrames());
  EXPECT_EQ(model.PayloadCwCount(), 200u);
  EXPECT_EQ(model.PayloadCwOffset(),
            2 * (frame::kSyncPrefixOctets + frame::kHeaderOctets));
  EXPECT_EQ(model.BodyCwCount(), 2 * model.Layout().BodyOctets());
}

}  // namespace
}  // namespace ppr::sim
