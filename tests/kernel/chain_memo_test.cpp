// Chain-memo contracts (ctest -L kernel): a memoized cold solve is bitwise
// the fresh one, whatever schedule or threshold search prices it afterwards,
// and concurrent requests for one chain solve it exactly once.

#include "analysis/chain_memo.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/revenue.h"
#include "analysis/sweep.h"
#include "analysis/threshold.h"
#include "api/presets.h"
#include "support/metrics.h"
#include "support/thread_pool.h"

namespace ethsm::analysis {
namespace {

using support::metrics::Scope;

std::vector<std::uint64_t> bits_of(const RevenueBreakdown& r) {
  std::vector<std::uint64_t> bits;
  for (double x : {r.pool_static, r.pool_uncle, r.pool_nephew,
                   r.honest_static, r.honest_uncle, r.honest_nephew,
                   r.regular_rate, r.referenced_uncle_rate}) {
    bits.push_back(std::bit_cast<std::uint64_t>(x));
  }
  return bits;
}

support::metrics::Counter& solver_counter(const char* name) {
  return support::metrics::registry().counter(name);
}

TEST(KernelChainMemo, Fig9SchedulesAreBitwiseTheColdPath) {
  // Every (alpha, schedule) point of the fig9 quick grid, priced through one
  // shared memo, equals the direct cold compute_revenue to the last bit.
  const api::ExperimentSpec spec = api::preset_spec("fig9", true);
  const std::vector<double> alphas =
      spec.alphas.empty() ? fig8_alpha_grid() : spec.alphas;
  ASSERT_EQ(spec.series.size(), 5u);
  ChainMemo memo;
  Scope scope;
  const Scope::Install install(&scope);
  for (const api::SeriesSpec& series : spec.series) {
    const rewards::RewardConfig config = api::parse_reward_spec(series.rewards);
    for (double alpha : alphas) {
      const markov::MiningParams params{alpha, spec.gamma};
      EXPECT_EQ(bits_of(compute_revenue(params, config, spec.max_lead, &memo)),
                bits_of(compute_revenue(params, config, spec.max_lead)))
          << series.label << " alpha=" << alpha;
    }
  }
  if constexpr (support::metrics::kEnabled) {
    // One memo solve per alpha plus the direct path's solve per point.
    const std::uint64_t points = spec.series.size() * alphas.size();
    EXPECT_EQ(scope.value(solver_counter("ethsm_solver_solves_total")),
              alphas.size() + points);
    EXPECT_EQ(scope.value(solver_counter("ethsm_solver_reuses_total")),
              points - alphas.size());
  }
}

std::optional<std::uint64_t> bits_of(const std::optional<double>& x) {
  if (!x) return std::nullopt;
  return std::bit_cast<std::uint64_t>(*x);
}

TEST(KernelChainMemo, ThresholdsThroughOneMemoAreBitwiseTheColdSearch) {
  // Both scenarios at every gamma of the fig10 quick grid share one memo, so
  // later searches are priced from chains an earlier one solved; each still
  // lands on the memo-less search's threshold to the last bit.
  const api::ExperimentSpec spec = api::preset_spec("fig10", true);
  ASSERT_FALSE(spec.gammas.empty());
  const rewards::RewardConfig config = api::parse_reward_spec(spec.rewards);
  ThresholdOptions cold;
  cold.alpha_min = spec.alpha_min;
  cold.alpha_max = spec.alpha_max;
  cold.tolerance = spec.tolerance;
  cold.max_lead = spec.threshold_max_lead;
  ChainMemo memo;
  ThresholdOptions shared = cold;
  shared.chains = &memo;
  for (double gamma : spec.gammas) {
    for (Scenario scenario :
         {Scenario::regular_rate_one, Scenario::regular_and_uncle_rate_one}) {
      EXPECT_EQ(
          bits_of(profitability_threshold(gamma, config, scenario, shared)),
          bits_of(profitability_threshold(gamma, config, scenario, cold)))
          << "gamma=" << gamma << " scenario=" << static_cast<int>(scenario);
    }
  }
}

TEST(KernelChainMemo, ConcurrentRequestsForOneChainSolveOnce) {
  constexpr std::size_t kJobs = 8;
  const markov::MiningParams params{0.4, 0.5};
  ChainMemo memo;
  std::vector<std::vector<double>> got(kJobs);
  Scope scope;
  {
    const Scope::Install install(&scope);
    support::ThreadPool pool(4);
    pool.for_each_index(kJobs, [&](std::size_t i) {
      got[i] = reduce_cold_chain(params, 120, &memo,
                                 [](const markov::StationaryDistribution& pi,
                                    const markov::TransitionModel&) {
                                   return pi.values();
                                 });
    });
  }
  const std::vector<double> cold = reduce_cold_chain(
      params, 120, nullptr,
      [](const markov::StationaryDistribution& pi,
         const markov::TransitionModel&) { return pi.values(); });
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_EQ(got[i].size(), cold.size());
    for (std::size_t s = 0; s < cold.size(); ++s) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i][s]),
                std::bit_cast<std::uint64_t>(cold[s]))
          << "job " << i << " state " << s;
    }
  }
  if constexpr (support::metrics::kEnabled) {
    EXPECT_EQ(scope.value(solver_counter("ethsm_solver_solves_total")), 1u);
    EXPECT_EQ(scope.value(solver_counter("ethsm_solver_reuses_total")),
              kJobs - 1);
  }
}

TEST(KernelChainMemo, KeysAreTheExactChainInputs) {
  // Any change of alpha, gamma or truncation depth is a distinct chain;
  // repeating a key is a reuse and reproduces the stored diagnostics.
  ChainMemo memo;
  Scope scope;
  const Scope::Install install(&scope);
  auto iterations = [&](double alpha, double gamma, int max_lead) {
    return reduce_cold_chain({alpha, gamma}, max_lead, &memo,
                             [](const markov::StationaryDistribution& pi,
                                const markov::TransitionModel&) {
                               return pi.iterations();
                             });
  };
  const int first = iterations(0.3, 0.5, 40);
  iterations(0.3, 0.25, 40);
  iterations(0.3, 0.5, 41);
  iterations(0.30000000000000004, 0.5, 40);
  EXPECT_EQ(iterations(0.3, 0.5, 40), first);
  if constexpr (support::metrics::kEnabled) {
    EXPECT_EQ(scope.value(solver_counter("ethsm_solver_solves_total")), 4u);
    EXPECT_EQ(scope.value(solver_counter("ethsm_solver_reuses_total")), 1u);
  }
}

}  // namespace
}  // namespace ethsm::analysis
