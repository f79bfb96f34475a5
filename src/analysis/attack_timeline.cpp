#include "analysis/attack_timeline.h"

#include "support/check.h"

namespace ethsm::analysis {

std::optional<double> AttackTimeline::breakeven_time(
    double phase1_duration) const {
  ETHSM_EXPECTS(phase1_duration >= 0.0, "phase-1 duration must be >= 0");
  const double deficit = initial_bleed_rate() * phase1_duration;
  const double gain = steady_gain_rate();
  if (deficit <= 0.0) return 0.0;  // never bled: profitable immediately
  if (gain <= 0.0) return std::nullopt;  // below threshold: never recovers
  return deficit / gain;
}

AttackTimeline compute_attack_timeline(const markov::MiningParams& params,
                                       const rewards::RewardConfig& config,
                                       Scenario scenario, int max_lead,
                                       ChainMemo* chains) {
  const RevenueBreakdown r = compute_revenue(params, config, max_lead, chains);

  AttackTimeline timeline;
  // Phase 1: total block production still runs at rate 1 (stale difficulty),
  // so the long-run reward *rates* of the breakdown apply directly.
  timeline.phase1_reward_rate = r.pool_total();
  timeline.honest_reward_rate = params.alpha;
  // Phase 2: the controller restores its counted rate to 1; revenue per
  // counted block is the scenario's Us, hence per unit time as well.
  timeline.phase2_reward_rate = pool_absolute_revenue(r, scenario);
  return timeline;
}

}  // namespace ethsm::analysis
