// Wall-clock simulation of selfish mining under a live difficulty controller
// (the dynamic counterpart of the paper's Sec. IV-E2 time-rescaling).
//
// Unlike simulator.h -- which works in "block index" time and normalizes
// afterwards -- this simulator runs in seconds: the system produces blocks
// at rate hash_rate / difficulty(t), and the controller retargets after
// every epoch of `epoch_blocks` main-chain blocks. Key outputs are rates
// *per second*, so the scenario normalizations can be observed instead of
// imposed:
//   * under a Scenario-1 controller, regular blocks converge to target_rate
//     and the pool's revenue/second converges to Us_1 * target_rate;
//   * under an EIP100 controller, regular+uncles converge to target_rate and
//     revenue/second converges to Us_2 * target_rate.

#ifndef ETHSM_SIM_RETARGET_SIM_H
#define ETHSM_SIM_RETARGET_SIM_H

#include <vector>

#include "sim/difficulty.h"
#include "support/checkpoint.h"

namespace ethsm::sim {

struct RetargetConfig {
  SimConfig base;                 ///< alpha, gamma, rewards, seed, strategy
  DifficultyController::Options controller;
  std::uint64_t epoch_blocks = 500;  ///< main-chain blocks per retarget epoch
  int epochs = 60;
  double hash_rate = 1.0;  ///< blocks/second at difficulty 1

  void validate() const;
};

/// Per-epoch telemetry (the convergence trajectory).
struct EpochStats {
  double difficulty = 0.0;       ///< difficulty during this epoch
  double duration = 0.0;         ///< seconds
  double regular_rate = 0.0;     ///< regular blocks / second
  double counted_rate = 0.0;     ///< what the controller saw / second
  double pool_reward_rate = 0.0; ///< pool reward units / second
  double honest_reward_rate = 0.0;
};

struct RetargetResult {
  std::vector<EpochStats> epochs;
  /// Averages over the second half of the run (post-convergence).
  double steady_regular_rate = 0.0;
  double steady_counted_rate = 0.0;
  double steady_pool_reward_rate = 0.0;
  double steady_honest_reward_rate = 0.0;
  double final_difficulty = 0.0;

  /// Pool revenue per counted block -- directly comparable to the static
  /// analysis' Us for the controller's scenario.
  [[nodiscard]] double steady_pool_revenue_per_counted_block() const {
    return steady_counted_rate == 0.0
               ? 0.0
               : steady_pool_reward_rate / steady_counted_rate;
  }
};

/// Runs the attack under live retargeting; deterministic given the seed.
[[nodiscard]] RetargetResult run_retarget_simulation(
    const RetargetConfig& config);

}  // namespace ethsm::sim

namespace ethsm::support {

template <>
struct CheckpointCodec<sim::EpochStats> : DoublesCodec<sim::EpochStats> {};

/// The epoch trajectory, then the steady-state averages.
template <>
struct CheckpointCodec<sim::RetargetResult> {
  static void encode(ByteWriter& w, const sim::RetargetResult& result) {
    w.u64(result.epochs.size());
    for (const auto& e : result.epochs) {
      CheckpointCodec<sim::EpochStats>::encode(w, e);
    }
    for (double v : {result.steady_regular_rate, result.steady_counted_rate,
                     result.steady_pool_reward_rate,
                     result.steady_honest_reward_rate,
                     result.final_difficulty}) {
      w.f64(v);
    }
  }
  static sim::RetargetResult decode(ByteReader& r) {
    sim::RetargetResult result;
    result.epochs.resize(r.u64());
    for (auto& e : result.epochs) {
      e = CheckpointCodec<sim::EpochStats>::decode(r);
    }
    for (double* v : {&result.steady_regular_rate, &result.steady_counted_rate,
                      &result.steady_pool_reward_rate,
                      &result.steady_honest_reward_rate,
                      &result.final_difficulty}) {
      *v = r.f64();
    }
    return result;
  }
};

}  // namespace ethsm::support

#endif  // ETHSM_SIM_RETARGET_SIM_H
