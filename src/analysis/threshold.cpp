#include "analysis/threshold.h"

#include "support/math_util.h"

namespace ethsm::analysis {

double selfish_advantage(double alpha, double gamma,
                         const rewards::RewardConfig& config,
                         Scenario scenario, int max_lead) {
  const markov::MiningParams params{alpha, gamma};
  const RevenueBreakdown r = compute_revenue(params, config, max_lead);
  return pool_absolute_revenue(r, scenario) - alpha;
}

std::optional<double> profitability_threshold(double gamma,
                                              const rewards::RewardConfig& config,
                                              Scenario scenario,
                                              const ThresholdOptions& options) {
  return profitability_threshold_report(gamma, config, scenario, options).alpha;
}

ThresholdReport profitability_threshold_report(
    double gamma, const rewards::RewardConfig& config, Scenario scenario,
    const ThresholdOptions& options) {
  auto profitable = [&](double alpha) {
    const markov::MiningParams params{alpha, gamma};
    const RevenueBreakdown r =
        compute_revenue(params, config, options.max_lead, options.chains);
    return pool_absolute_revenue(r, scenario) - alpha >= 0.0;
  };
  const support::FirstTrueReport found =
      support::first_true_report(profitable, options.alpha_min,
                                 options.alpha_max, options.tolerance);

  // Bracket verification verdict. When alpha_max sits exactly on the sign
  // change at tight tolerance the search cannot distinguish an interior
  // threshold from one clamped to the bracket endpoint; that case is
  // *reported* (at_alpha_max) instead of failing, so sweeps over gamma grids
  // that brush the scenario-2 knee keep running and callers can widen the
  // bracket where it matters.
  ThresholdReport report;
  report.alpha = found.value;
  switch (found.crossing) {
    case support::CrossingLocation::at_lo:
      report.bracket = ThresholdBracket::always_profitable;
      break;
    case support::CrossingLocation::interior:
      report.bracket = ThresholdBracket::interior_crossing;
      break;
    case support::CrossingLocation::at_hi:
      report.bracket = ThresholdBracket::at_alpha_max;
      break;
    case support::CrossingLocation::none:
      report.bracket = ThresholdBracket::never_profitable;
      break;
  }
  return report;
}

}  // namespace ethsm::analysis
