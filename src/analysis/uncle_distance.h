// Referencing-distance distribution of honest miners' uncle blocks
// (paper Table II and the Sec. VI design discussion).
//
// Each honest uncle's reference distance is locked in at creation
// (Appendix B); accumulating P(uncle at distance d) over the stationary flow
// yields the distribution. The paper reports it conditional on d in [1, 6]
// (distances beyond the horizon are never referenced at all).

#ifndef ETHSM_ANALYSIS_UNCLE_DISTANCE_H
#define ETHSM_ANALYSIS_UNCLE_DISTANCE_H

#include <array>

#include "analysis/reward_cases.h"
#include "markov/stationary.h"
#include "support/checkpoint.h"

namespace ethsm::analysis {

struct UncleDistanceDistribution {
  /// fraction[d] = P(distance = d | 1 <= distance <= 6); index 0 unused.
  std::array<double, 7> fraction{};
  /// E[distance | 1 <= distance <= 6] (the paper's "Expectation" row).
  double expectation = 0.0;
  /// Rate of honest uncles with distance <= 6 / > 6, per unit time.
  double in_horizon_rate = 0.0;
  double beyond_horizon_rate = 0.0;
};

/// Distance distribution of *honest* uncles under (alpha, gamma). The pool's
/// uncles always sit at distance 1 (Remark 5) and are excluded, as in the
/// paper's table.
[[nodiscard]] UncleDistanceDistribution honest_uncle_distance_distribution(
    const markov::StationaryDistribution& pi,
    const markov::TransitionModel& model);

/// Convenience overload building the chain for (alpha, gamma).
[[nodiscard]] UncleDistanceDistribution honest_uncle_distance_distribution(
    const markov::MiningParams& params, int max_lead = 80);

}  // namespace ethsm::analysis

namespace ethsm::support {

template <>
struct CheckpointCodec<analysis::UncleDistanceDistribution>
    : DoublesCodec<analysis::UncleDistanceDistribution> {};

}  // namespace ethsm::support

#endif  // ETHSM_ANALYSIS_UNCLE_DISTANCE_H
