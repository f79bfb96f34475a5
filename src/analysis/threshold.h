// Profitability-threshold analysis (paper Sec. IV-E3, Fig. 10, Sec. VI).
//
// alpha* is the smallest hash-power share at which the selfish strategy beats
// honest mining: Us(alpha) >= alpha. Honest mining earns exactly alpha, so we
// search for the first sign change of Us(alpha) - alpha. Us - alpha is
// negative just above 0 (withheld blocks cost more than uncles repay) and
// positive near 0.5, and crosses once in between for every (gamma, schedule)
// studied in the paper; the search verifies the bracket rather than assuming
// it.

#ifndef ETHSM_ANALYSIS_THRESHOLD_H
#define ETHSM_ANALYSIS_THRESHOLD_H

#include <optional>

#include "analysis/absolute_revenue.h"

namespace ethsm::analysis {

struct ThresholdOptions {
  double alpha_min = 1e-4;
  double alpha_max = 0.4999;
  double tolerance = 1e-6;
  int max_lead = 60;  ///< Markov truncation while searching
  /// The run's memo of cold stationary solves (analysis/chain_memo.h):
  /// searches that probe the same alphas -- both scenarios of one gamma, the
  /// schedules of one gamma until their bisection paths split -- solve each
  /// chain once. Null solves every step afresh; the threshold is bitwise the
  /// same either way, so this is not part of any sweep fingerprint.
  ChainMemo* chains = nullptr;
};

/// Smallest alpha making selfish mining profitable for the given gamma,
/// reward schedule and difficulty scenario. Returns:
///   * ~0 (alpha_min) when selfish mining is *always* profitable (gamma = 1),
///   * std::nullopt when it is never profitable on [alpha_min, alpha_max].
[[nodiscard]] std::optional<double> profitability_threshold(
    double gamma, const rewards::RewardConfig& config, Scenario scenario,
    const ThresholdOptions& options = {});

/// Outcome of the bracket verification performed by the threshold search.
enum class ThresholdBracket {
  always_profitable,  ///< Us - alpha >= 0 already at alpha_min
  interior_crossing,  ///< sign change strictly inside (alpha_min, alpha_max)
  at_alpha_max,       ///< sign change within tolerance of alpha_max: the
                      ///< bracket endpoint itself sits on the crossing (e.g.
                      ///< near the scenario-2 knee at tight tolerance). The
                      ///< search *reports* this -- the returned alpha is the
                      ///< endpoint, and a wider alpha_max would be needed to
                      ///< certify an interior threshold.
  never_profitable,   ///< Us - alpha < 0 on the whole bracket
};

struct ThresholdReport {
  /// As profitability_threshold(); engaged unless never_profitable.
  std::optional<double> alpha;
  ThresholdBracket bracket = ThresholdBracket::never_profitable;
};

/// profitability_threshold with the bracket verdict exposed. The alpha value
/// is bitwise-identical to profitability_threshold()'s for every input; the
/// at_alpha_max case is reported rather than treated as a hard failure.
[[nodiscard]] ThresholdReport profitability_threshold_report(
    double gamma, const rewards::RewardConfig& config, Scenario scenario,
    const ThresholdOptions& options = {});

/// Us(alpha) - alpha, the searched objective (exposed for tests/plots).
[[nodiscard]] double selfish_advantage(double alpha, double gamma,
                                       const rewards::RewardConfig& config,
                                       Scenario scenario, int max_lead = 60);

}  // namespace ethsm::analysis

#endif  // ETHSM_ANALYSIS_THRESHOLD_H
