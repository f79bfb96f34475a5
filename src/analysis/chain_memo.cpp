#include "analysis/chain_memo.h"

#include <bit>

#include "support/metrics.h"

namespace ethsm::analysis {

markov::StationaryDistribution ChainMemo::solve(
    const markov::TransitionModel& model) {
  const Key key{std::bit_cast<std::uint64_t>(model.params().alpha),
                std::bit_cast<std::uint64_t>(model.params().gamma),
                model.space().max_lead()};
  Solved* solved = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = solved_[key];
    if (!slot) slot = std::make_unique<Solved>();
    solved = slot.get();
  }

  // The map lock is not held while solving, so distinct keys solve in
  // parallel; call_once makes a request for a key in flight wait for it.
  bool reused = true;
  std::call_once(solved->once, [&] {
    markov::StationaryDistribution pi = markov::solve_stationary(model);
    solved->iterations = pi.iterations();
    solved->residual = pi.residual();
    solved->method = pi.method();
    solved->pi = pi.values();
    reused = false;
  });
  if constexpr (support::metrics::kEnabled) {
    if (reused) {
      static support::metrics::Counter& reuses =
          support::metrics::registry().counter(
              "ethsm_solver_reuses_total",
              "Cold stationary solves served from a run's chain memo");
      reuses.add_scoped();
    }
  }
  return markov::StationaryDistribution(model.space(), solved->pi,
                                        solved->iterations, solved->residual,
                                        solved->method);
}

}  // namespace ethsm::analysis
