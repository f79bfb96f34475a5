// Time-to-profit analysis of selfish mining (extension; cf. Grunspan &
// Pérez-Marco's observation for Bitcoin that selfish mining is a bet on the
// *difficulty adjustment*, not an instant win).
//
// The paper's thresholds compare steady states. In wall-clock terms the
// attack has two phases:
//   Phase 1 (stale difficulty): blocks still arrive at the pre-attack rate,
//     but the attack discards some of them; the pool's reward per second is
//     r_pool = pool_total(revenue) < alpha -- the pool BLEEDS relative to
//     honest mining, even above the threshold.
//   Phase 2 (after retargeting): the difficulty rule restores its target
//     rate; the pool earns Us * target_rate per second, which exceeds alpha
//     iff alpha is above the scenario threshold.
// Breakeven: how long phase 2 must run before its surplus repays phase 1's
// deficit. This quantifies *how patient* an attacker must be under each
// difficulty regime -- a practical security margin the steady-state
// threshold hides. Cross-validated against the retarget simulator.

#ifndef ETHSM_ANALYSIS_ATTACK_TIMELINE_H
#define ETHSM_ANALYSIS_ATTACK_TIMELINE_H

#include <optional>

#include "analysis/absolute_revenue.h"
#include "support/checkpoint.h"

namespace ethsm::analysis {

struct AttackTimeline {
  /// Pool reward per unit time while difficulty is still pre-attack
  /// (block production rate 1).
  double phase1_reward_rate = 0.0;
  /// What honest mining would earn per unit time (= alpha).
  double honest_reward_rate = 0.0;
  /// Pool reward per unit time after the difficulty rule converged.
  double phase2_reward_rate = 0.0;

  /// Reward deficit accumulated per unit time during phase 1 (>= 0 means
  /// the attack bleeds initially; gamma = 1 makes it 0).
  [[nodiscard]] double initial_bleed_rate() const noexcept {
    return honest_reward_rate - phase1_reward_rate;
  }
  /// Net gain per unit time once retargeted (positive above threshold).
  [[nodiscard]] double steady_gain_rate() const noexcept {
    return phase2_reward_rate - honest_reward_rate;
  }

  /// Time (in phase-2 units) to repay the phase-1 deficit accumulated over
  /// `phase1_duration`. nullopt if the attack never breaks even.
  [[nodiscard]] std::optional<double> breakeven_time(
      double phase1_duration) const;
};

/// Computes the timeline for (alpha, gamma) under a reward schedule and the
/// difficulty scenario that governs phase 2. Both scenarios price the same
/// chain, so a run's `chains` memo solves it once for the pair.
[[nodiscard]] AttackTimeline compute_attack_timeline(
    const markov::MiningParams& params, const rewards::RewardConfig& config,
    Scenario scenario, int max_lead = 80, ChainMemo* chains = nullptr);

}  // namespace ethsm::analysis

namespace ethsm::support {

template <>
struct CheckpointCodec<analysis::AttackTimeline>
    : DoublesCodec<analysis::AttackTimeline> {};

}  // namespace ethsm::support

#endif  // ETHSM_ANALYSIS_ATTACK_TIMELINE_H
