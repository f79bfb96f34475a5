// Per-run memo of cold stationary solves (paper Sec. IV-C).
//
// The stationary distribution of the 2-D chain depends only on (alpha,
// gamma) and the truncation depth; the uncle and nephew schedules enter only
// the reward integration that follows it (Sec. IV-E, Appendix B). So the
// experiments that price one chain more than once -- Fig. 9's five series,
// the timeline's two difficulty scenarios, the threshold bisections of both
// scenarios and of Sec. VI's schedules, which probe the same alphas until
// their paths split -- need one solve per chain, not one per evaluation. A
// ChainMemo gives them that: the first request for a key solves, every later
// one copies the stored vector.
//
// Keys are the exact bits of (alpha, gamma, max_lead), the only inputs of a
// cold solve_stationary, which is a pure function of them: a memoized result
// is bitwise-identical to a fresh solve, so artefacts do not depend on
// whether, or in which order, jobs hit the memo.
//
// Scope: one memo per api::run (its Plan owns it), freed when the run
// returns. There is deliberately no process-wide instance.

#ifndef ETHSM_ANALYSIS_CHAIN_MEMO_H
#define ETHSM_ANALYSIS_CHAIN_MEMO_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "markov/stationary.h"

namespace ethsm::analysis {

/// Thread-safe memo of cold stationary solves. Each key is solved exactly
/// once; a concurrent request for a key being solved waits for that solve.
class ChainMemo {
 public:
  ChainMemo() = default;
  ChainMemo(const ChainMemo&) = delete;
  ChainMemo& operator=(const ChainMemo&) = delete;

  /// solve_stationary(model) with default options, solved on the first
  /// request for the model's (alpha, gamma, max_lead) and copied from the
  /// memo on every later one (counted in ethsm_solver_reuses_total).
  [[nodiscard]] markov::StationaryDistribution solve(
      const markov::TransitionModel& model);

 private:
  /// One key's solve: filled exactly once under `once`, read-only after.
  struct Solved {
    std::once_flag once;
    std::vector<double> pi;
    int iterations = 0;
    double residual = 0.0;
    markov::SolveMethod method = markov::SolveMethod::power;
  };
  using Key = std::tuple<std::uint64_t, std::uint64_t, int>;

  std::mutex mutex_;
  std::map<Key, std::unique_ptr<Solved>> solved_;
};

/// Builds the chain of `params` truncated at `max_lead`, solves it cold --
/// through `memo` when one is given -- and returns reduce(pi, model). The
/// space and model live only for the call: building them costs a fraction of
/// a percent of the solve.
template <typename Reduce>
auto reduce_cold_chain(const markov::MiningParams& params, int max_lead,
                       ChainMemo* memo, Reduce&& reduce) {
  const markov::StateSpace space(max_lead);
  const markov::TransitionModel model(space, params);
  return std::forward<Reduce>(reduce)(
      memo != nullptr ? memo->solve(model) : markov::solve_stationary(model),
      model);
}

}  // namespace ethsm::analysis

#endif  // ETHSM_ANALYSIS_CHAIN_MEMO_H
