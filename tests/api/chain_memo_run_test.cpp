// Run-scoped chain memo (ctest -L study): run() shares each cold stationary
// solve across the jobs of one run, threshold searches included, and keeps
// nothing after it returns.

#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/threshold.h"
#include "api/presets.h"
#include "api/render.h"
#include "api/runner.h"
#include "support/metrics.h"

namespace ethsm::api {
namespace {

using support::metrics::Scope;

struct SolverCounts {
  std::uint64_t solves = 0;
  std::uint64_t reuses = 0;
};

/// What `fn` added to the solver counters, attributed through a scope.
template <typename Fn>
SolverCounts counted(Fn&& fn) {
  Scope scope;
  {
    const Scope::Install install(&scope);
    fn();
  }
  auto& reg = support::metrics::registry();
  return {scope.value(reg.counter("ethsm_solver_solves_total")),
          scope.value(reg.counter("ethsm_solver_reuses_total"))};
}

TEST(StudyChainMemo, EachRunSolvesTheFig9ChainsOnce) {
  // Five schedules over 19 alphas: 19 distinct chains, the other 76 points
  // reuse them. A second run solves all 19 again -- the memo died with the
  // first run -- and renders the same bytes.
  if constexpr (!support::metrics::kEnabled) GTEST_SKIP();
  const ExperimentSpec spec = preset_spec("fig9", true);
  std::string first_json;
  std::string second_json;
  const SolverCounts first =
      counted([&] { first_json = render_json(run(spec)); });
  const SolverCounts second =
      counted([&] { second_json = render_json(run(spec)); });
  EXPECT_EQ(first.solves, 19u);
  EXPECT_EQ(first.reuses, 76u);
  EXPECT_EQ(second.solves, 19u);
  EXPECT_EQ(second.reuses, 76u);
  EXPECT_EQ(first_json, second_json);
}

TEST(StudyChainMemo, TimelineScenariosShareOneSolvePerAlpha) {
  if constexpr (!support::metrics::kEnabled) GTEST_SKIP();
  const SolverCounts counts =
      counted([] { (void)run(preset_spec("ext_timeline", true)); });
  EXPECT_EQ(counts.solves, 9u);
  EXPECT_EQ(counts.reuses, 9u);
}

TEST(StudyChainMemo, ThresholdSearchesShareTheRunsMemo) {
  if constexpr (!support::metrics::kEnabled) GTEST_SKIP();
  // One bisection never probes an alpha twice: 15 evaluations at this
  // tolerance, each a solve, with or without a memo.
  analysis::ThresholdOptions options;
  options.tolerance = 1e-4;
  options.max_lead = 25;
  analysis::ChainMemo memo;
  options.chains = &memo;
  const SolverCounts search = counted([&] {
    (void)analysis::profitability_threshold(
        0.5, rewards::RewardConfig::ethereum_byzantium(),
        analysis::Scenario::regular_rate_one, options);
  });
  EXPECT_EQ(search.solves, 15u);
  EXPECT_EQ(search.reuses, 0u);

  // A repeated gamma in one run repeats both searches step for step, so it
  // solves nothing new: every evaluation of the second gamma is a reuse.
  ExperimentSpec spec;
  spec.kind = ExperimentKind::threshold;
  spec.gammas = {0.5};
  spec.tolerance = options.tolerance;
  spec.threshold_max_lead = options.max_lead;
  const SolverCounts once = counted([&] { (void)run(spec); });
  spec.gammas = {0.5, 0.5};
  const SolverCounts twice = counted([&] { (void)run(spec); });
  EXPECT_GT(once.solves, search.solves);
  EXPECT_GT(once.reuses, 0u);  // both scenarios probe the bracket ends
  EXPECT_EQ(twice.solves, once.solves);
  EXPECT_EQ(twice.reuses, 2 * once.reuses + once.solves);
}

}  // namespace
}  // namespace ethsm::api
