#include "stream/redundancy.h"

#include <gtest/gtest.h>

namespace ppr::stream {
namespace {

ControllerInputs BaseInputs() {
  ControllerInputs in;
  in.now_us = 1'000'000;
  in.in_flight = 8;
  return in;
}

TEST(FixedRateControllerTest, OneRepairEveryKSourceSymbols) {
  FixedRateConfig config;
  config.source_per_repair = 3;
  const auto controller = MakeFixedRateController(config);
  std::size_t total = 0;
  for (int i = 0; i < 9; ++i) {
    total +=
        controller->RepairBudget(ControllerEvent::kSourceSent, BaseInputs());
  }
  EXPECT_EQ(total, 3u);
  // Ignores feedback and ticks entirely.
  auto in = BaseInputs();
  in.reported_deficit = 5;
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kFeedbackReceived, in),
            0u);
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kTick, in), 0u);
}

TEST(FixedRateControllerTest, IdleWindowSendsNothing) {
  const auto controller = MakeFixedRateController({.source_per_repair = 1});
  auto in = BaseInputs();
  in.in_flight = 0;
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kSourceSent, in), 0u);
}

TEST(AckDeficitControllerTest, EmitsDeficitMinusInFlight) {
  const auto controller = MakeAckDeficitController();
  auto in = BaseInputs();
  in.reported_deficit = 4;
  in.repairs_in_flight = 1;
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kFeedbackReceived, in),
            3u);
  // Fully covered by repair already in the air: nothing more.
  in.repairs_in_flight = 5;
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kFeedbackReceived, in),
            0u);
  // Only reacts to feedback.
  in.repairs_in_flight = 0;
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kSourceSent, in), 0u);
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kTick, in), 0u);
}

TEST(DeadlineControllerTest, ProtectBurstFiresNearDeadlineWithCooldown) {
  DeadlineConfig config;
  config.deadline_us = 40'000;
  config.protect_ratio = 0.5;
  config.protect_cooldown_us = 5'000;
  const auto controller = MakeDeadlineController(config);

  auto in = BaseInputs();
  in.reported_deficit = 1;  // the receiver is known to be missing something
  in.oldest_unacked_age_us = 10'000;  // under the 20ms protect threshold
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kTick, in), 0u);

  in.oldest_unacked_age_us = 25'000;  // over it
  const std::size_t burst =
      controller->RepairBudget(ControllerEvent::kTick, in);
  EXPECT_GT(burst, 0u);

  // Within the cooldown the burst must not repeat ...
  in.now_us += 1'000;
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kTick, in), 0u);
  // ... after it, it may.
  in.now_us += 10'000;
  EXPECT_GT(controller->RepairBudget(ControllerEvent::kTick, in), 0u);
}

TEST(DeadlineControllerTest, ProtectNeedsReportedDeficit) {
  const auto controller = MakeDeadlineController();
  auto in = BaseInputs();
  in.oldest_unacked_age_us = 35'000;  // well past the protect threshold
  in.reported_deficit = 0;            // but no evidence of missing equations
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kTick, in), 0u);
  in.reported_deficit = 2;
  EXPECT_GT(controller->RepairBudget(ControllerEvent::kTick, in), 0u);
}

TEST(DeadlineControllerTest, ProtectHoldsWhileRecentRepairInFlight) {
  const auto controller = MakeDeadlineController();
  auto in = BaseInputs();
  in.reported_deficit = 1;
  in.oldest_unacked_age_us = 35'000;
  in.repair_sent = 3;  // repair activity observed right now
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kTick, in), 0u);
  // Still quiet shortly after ...
  in.now_us += DeadlineConfig{}.protect_quiet_us / 2;
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kTick, in), 0u);
  // ... but once that repair has had its chance, protect may fire.
  in.now_us += DeadlineConfig{}.protect_quiet_us;
  EXPECT_GT(controller->RepairBudget(ControllerEvent::kTick, in), 0u);
}

TEST(DeadlineControllerTest, HonorsExplicitFeedbackDeficit) {
  const auto controller = MakeDeadlineController();
  auto in = BaseInputs();
  in.reported_deficit = 3;
  in.repairs_in_flight = 1;
  EXPECT_EQ(controller->RepairBudget(ControllerEvent::kFeedbackReceived, in),
            2u);
}

TEST(ControllerFactoryTest, KindsRoundTripNames) {
  for (const auto kind :
       {ControllerKind::kFixedRate, ControllerKind::kAckDeficit,
        ControllerKind::kDeadline}) {
    const auto controller = MakeController(kind);
    EXPECT_EQ(controller->name(), ControllerKindName(kind));
  }
}

}  // namespace
}  // namespace ppr::stream
