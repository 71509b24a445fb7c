// Pluggable redundancy policy for the streaming recovery engine: WHEN
// to spend airtime on repair symbols, replacing the discrete
// feedback-round deficit loop of CodedRepairSession.
//
// The session consults the controller at three event kinds — after a
// source symbol is sent, when feedback arrives, and on a periodic tick
// — and emits as many repair symbols as the returned budget says. The
// three shipped policies span the design space:
//
//   fixed-rate   open-loop: one repair per k source symbols, blind to
//                loss. The baseline every adaptive scheme must beat.
//   ack-deficit  closed-loop reactive: trust the receiver's reported
//                equation deficit, emit what it still needs after
//                discounting repair already in flight. Minimal
//                overhead, but a loss is only repaired a feedback
//                interval + RTT after it happened.
//   deadline     reactive core plus protect bursts, after flec's `abc`
//                protect conditions: honor the reported deficit like
//                ack-deficit, but when the oldest undelivered symbol's
//                age approaches the flow deadline, stop waiting for the
//                next feedback round and fire a repair immediately.
//                Because a protect repair the receiver needed shows up
//                in the next deficit report (shrinking the next honor
//                ask one-for-one), the burst substitutes for — rather
//                than adds to — the reactive spend: same repair count,
//                strictly earlier recovery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

namespace ppr::stream {

// What the session knows when it asks for a repair budget. All times
// are virtual-clock microseconds.
struct ControllerInputs {
  std::uint64_t now_us = 0;
  // Encoder window occupancy (unacked source symbols) — a repair is
  // only worth emitting when this is nonzero.
  std::size_t in_flight = 0;
  std::uint64_t source_sent = 0;
  std::uint64_t repair_sent = 0;
  // The receiver's equation deficit as of the latest feedback: how many
  // more independent equations it needs to recover everything it has
  // seen referenced.
  std::size_t reported_deficit = 0;
  // Repair symbols sent recently enough that the latest feedback cannot
  // reflect them (sent within the last one-way delay).
  std::size_t repairs_in_flight = 0;
  // Age of the oldest unacknowledged source symbol; 0 when none.
  std::uint64_t oldest_unacked_age_us = 0;
};

// The moments a controller is consulted.
enum class ControllerEvent : std::uint8_t {
  kSourceSent,       // right after one source symbol went out
  kFeedbackReceived, // a StreamAck just updated the inputs
  kTick,             // periodic timer, for deadline-style policies
};

class RedundancyController {
 public:
  virtual ~RedundancyController() = default;
  virtual std::string_view name() const = 0;
  // How many repair symbols to emit right now. Stateful: the session
  // reports back nothing — the controller must count what it asked for
  // via `repair_sent` in the next inputs.
  virtual std::size_t RepairBudget(ControllerEvent event,
                                   const ControllerInputs& in) = 0;
};

// One repair after every `source_per_repair` source symbols.
struct FixedRateConfig {
  std::size_t source_per_repair = 4;
};

// Emit the receiver's reported deficit minus repair already in flight,
// on feedback only.
struct AckDeficitConfig {};

// Reactive deficit honoring + deadline protect.
struct DeadlineConfig {
  // Per-packet delivery deadline the flow cares about.
  std::uint64_t deadline_us = 40'000;
  // Fire the protect burst when oldest_unacked_age exceeds this
  // fraction of the deadline.
  double protect_ratio = 0.5;
  // Minimum spacing between protect bursts.
  std::uint64_t protect_cooldown_us = 5'000;
  // After ANY repair went out (whichever path), hold the protect burst
  // this long: acks lag by up to a feedback round, so the stuck tail
  // that triggered it is likely already recovered or repair is still in
  // flight toward it. Roughly one feedback interval + RTT.
  std::uint64_t protect_quiet_us = 12'000;
  // Cap on one protect burst: the burst exists to reference and nudge a
  // stuck window tail, not to blanket-retransmit it.
  std::size_t max_protect_burst = 1;
};

std::unique_ptr<RedundancyController> MakeFixedRateController(
    FixedRateConfig config = {});
std::unique_ptr<RedundancyController> MakeAckDeficitController(
    AckDeficitConfig config = {});
std::unique_ptr<RedundancyController> MakeDeadlineController(
    DeadlineConfig config = {});

// Named controller kinds for sweeps and CLI flags.
enum class ControllerKind : std::uint8_t { kFixedRate, kAckDeficit, kDeadline };

std::string_view ControllerKindName(ControllerKind kind);
std::unique_ptr<RedundancyController> MakeController(ControllerKind kind);

}  // namespace ppr::stream
