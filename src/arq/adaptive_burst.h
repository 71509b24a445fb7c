// Adaptive repair-burst sizing for the coded recovery strategy.
//
// The old policy padded every burst by a fixed 25% headroom. The
// adaptive policy instead tracks the per-party repair-symbol delivery
// rate observed inside the coded session — symbols requested vs.
// symbols that arrived with a valid per-symbol CRC — and sizes the next
// burst so that the round completes (at least `deficit` symbols land)
// with a target probability (kRepairTargetCompletion,
// arq/recovery_strategy.cc). On a clean channel the estimate converges
// to 1 and the burst to exactly deficit + 0; on a lossy channel the
// estimate drops and bursts grow to keep the per-round completion
// probability at target. The old headroom survives as the prior: before
// any symbols have been requested the delivery rate is assumed to be
// 1 / (1 + kRepairPriorOverhead), reproducing it on round one.
#pragma once

#include <cstddef>

namespace ppr::arq {

// Smallest n >= deficit such that P[Binomial(n, delivery_p) >= deficit]
// >= target, capped at `cap`. deficit == 0 returns 0; delivery_p is
// clamped to (0, 1].
std::size_t BurstSizeForTarget(std::size_t deficit, double delivery_p,
                               double target, std::size_t cap);

// Tracks one repair party's delivery rate across rounds.
class RepairDeliveryEstimator {
 public:
  // `prior` is the delivery rate assumed before any evidence.
  explicit RepairDeliveryEstimator(double prior);

  // The receiver asked this party for `n` symbols this round.
  void OnRequested(std::size_t n) { requested_ += n; }

  // `n` symbols from this party arrived with a valid CRC.
  void OnDelivered(std::size_t n) { delivered_ += n; }

  // Current estimate, clamped to [kFloor, 1]; the prior until the first
  // request has been issued. A party that never answers (no relay in
  // range) decays to the floor, steering the burst split back to whoever
  // does answer.
  double DeliveryRate() const;

  std::size_t requested() const { return requested_; }
  std::size_t delivered() const { return delivered_; }

  static constexpr double kFloor = 0.05;

 private:
  double prior_;
  std::size_t requested_ = 0;
  std::size_t delivered_ = 0;
};

}  // namespace ppr::arq
