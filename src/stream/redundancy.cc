#include "stream/redundancy.h"

#include <algorithm>

#include "obs/obs.h"

namespace ppr::stream {

namespace {

class FixedRateController final : public RedundancyController {
 public:
  explicit FixedRateController(FixedRateConfig config) : config_(config) {}

  std::string_view name() const override { return "fixed-rate"; }

  std::size_t RepairBudget(ControllerEvent event,
                           const ControllerInputs& in) override {
    if (event != ControllerEvent::kSourceSent || in.in_flight == 0) return 0;
    if (++since_repair_ < config_.source_per_repair) return 0;
    since_repair_ = 0;
    return 1;
  }

 private:
  FixedRateConfig config_;
  std::size_t since_repair_ = 0;
};

class AckDeficitController final : public RedundancyController {
 public:
  explicit AckDeficitController(AckDeficitConfig config) : config_(config) {}

  std::string_view name() const override { return "ack-deficit"; }

  std::size_t RepairBudget(ControllerEvent event,
                           const ControllerInputs& in) override {
    if (event != ControllerEvent::kFeedbackReceived || in.in_flight == 0) {
      return 0;
    }
    // The receiver needs `reported_deficit` more equations; repair
    // still in flight will satisfy part of it. Purely reactive: the
    // price is a feedback interval + RTT of latency on every loss, and
    // a lost repair is only re-requested by the NEXT feedback.
    if (in.reported_deficit <= in.repairs_in_flight) return 0;
    return in.reported_deficit - in.repairs_in_flight;
  }

 private:
  [[maybe_unused]] AckDeficitConfig config_;
};

class DeadlineController final : public RedundancyController {
 public:
  explicit DeadlineController(DeadlineConfig config) : config_(config) {}

  std::string_view name() const override { return "deadline"; }

  std::size_t RepairBudget(ControllerEvent event,
                           const ControllerInputs& in) override {
    // Track when the session last emitted any repair (whichever path
    // asked for it): the protect burst suppresses itself while repair
    // is already on the wire, like fast retransmit.
    if (in.repair_sent != last_repair_sent_) {
      last_repair_sent_ = in.repair_sent;
      last_repair_activity_us_ = in.now_us;
    }
    if (in.in_flight == 0) return 0;
    switch (event) {
      case ControllerEvent::kSourceSent:
        return 0;
      case ControllerEvent::kFeedbackReceived:
        // Honor the receiver's explicit ask, minus repair in flight.
        if (in.reported_deficit > in.repairs_in_flight) {
          const std::size_t ask = in.reported_deficit - in.repairs_in_flight;
          obs::Count("stream.ctrl.deadline.deficit_repairs", ask);
          return ask;
        }
        return 0;
      case ControllerEvent::kTick: {
        // Protect condition (flec `abc`): the oldest undelivered symbol
        // is running out of deadline — stop waiting for feedback and
        // blanket the window now.
        const auto threshold = static_cast<std::uint64_t>(
            config_.protect_ratio * static_cast<double>(config_.deadline_us));
        if (in.oldest_unacked_age_us < threshold) return 0;
        if (in.now_us - last_protect_us_ < config_.protect_cooldown_us &&
            last_protect_us_ != 0) {
          return 0;
        }
        // Repair already in the air can still unstick the tail; burst
        // only once it has had a chance and the tail is still old.
        if (in.now_us - last_repair_activity_us_ < config_.protect_quiet_us) {
          return 0;
        }
        // No reported deficit means no evidence the receiver is missing
        // equations — an old tail with a clean deficit is the session
        // stall watchdog's job, not protect's.
        if (in.reported_deficit == 0) return 0;
        last_protect_us_ = in.now_us;
        // Size the burst by the receiver's last reported deficit (stale,
        // but the best evidence of how many equations the stuck tail
        // still needs), with one as the floor — a single repair spanning
        // the window both references the tail and often recovers it.
        const auto burst =
            std::min(std::max<std::size_t>(in.reported_deficit, 1),
                     config_.max_protect_burst);
        obs::Count("stream.ctrl.deadline.protect_repairs", burst);
        return burst;
      }
    }
    return 0;
  }

 private:
  DeadlineConfig config_;
  std::uint64_t last_protect_us_ = 0;
  std::uint64_t last_repair_sent_ = 0;
  std::uint64_t last_repair_activity_us_ = 0;
};

}  // namespace

std::unique_ptr<RedundancyController> MakeFixedRateController(
    FixedRateConfig config) {
  return std::make_unique<FixedRateController>(config);
}

std::unique_ptr<RedundancyController> MakeAckDeficitController(
    AckDeficitConfig config) {
  return std::make_unique<AckDeficitController>(config);
}

std::unique_ptr<RedundancyController> MakeDeadlineController(
    DeadlineConfig config) {
  return std::make_unique<DeadlineController>(config);
}

std::string_view ControllerKindName(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kFixedRate:
      return "fixed-rate";
    case ControllerKind::kAckDeficit:
      return "ack-deficit";
    case ControllerKind::kDeadline:
      return "deadline";
  }
  return "unknown";
}

std::unique_ptr<RedundancyController> MakeController(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kFixedRate:
      return MakeFixedRateController();
    case ControllerKind::kAckDeficit:
      return MakeAckDeficitController();
    case ControllerKind::kDeadline:
      return MakeDeadlineController();
  }
  return MakeFixedRateController();
}

}  // namespace ppr::stream
