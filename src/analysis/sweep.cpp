#include "analysis/sweep.h"

#include "analysis/bitcoin_es.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace ethsm::analysis {

std::vector<double> fig8_alpha_grid() {
  std::vector<double> alphas;
  for (int i = 0; i <= 18; ++i) alphas.push_back(0.025 * i);
  return alphas;
}

std::vector<double> fig10_gamma_grid() {
  std::vector<double> gammas;
  for (int i = 0; i <= 20; ++i) gammas.push_back(0.05 * i);
  return gammas;
}

namespace {

/// Per-point master seed; kept identical to the historical serial driver so
/// recorded experiment outputs stay reproducible.
std::uint64_t point_seed(const RevenueCurveOptions& options, double alpha) {
  return support::derive_seed(options.sim_seed,
                              static_cast<std::uint64_t>(alpha * 1e6));
}

void mix_grid(support::Fingerprint& fp, const std::vector<double>& grid) {
  fp.mix(static_cast<std::uint64_t>(grid.size()));
  for (double x : grid) fp.mix(x);
}

std::uint64_t revenue_markov_fingerprint(const RevenueCurveOptions& options,
                                         const std::vector<double>& alphas) {
  support::Fingerprint fp;
  fp.mix("revenue_curve/markov/v1");
  fp.mix(options.gamma);
  fp.mix(rewards::sweep_fingerprint(options.rewards));
  fp.mix(static_cast<int>(options.scenario));
  fp.mix(options.max_lead);
  mix_grid(fp, alphas);
  return fp.digest();
}

std::uint64_t revenue_sim_fingerprint(const RevenueCurveOptions& options,
                                      const std::vector<double>& alphas) {
  support::Fingerprint fp;
  fp.mix("revenue_curve/sim/v1");
  fp.mix(options.gamma);
  fp.mix(rewards::sweep_fingerprint(options.rewards));
  fp.mix(options.sim_runs);
  fp.mix(options.sim_blocks);
  fp.mix(options.sim_seed);
  mix_grid(fp, alphas);
  return fp.digest();
}

std::vector<double> curve_alphas(const RevenueCurveOptions& options) {
  return options.alphas.empty() ? fig8_alpha_grid() : options.alphas;
}

/// One Monte-Carlo job of a revenue curve: run `run` at alphas[point_index].
struct SimJob {
  std::size_t point_index = 0;
  int run = 0;
};

/// The simulation sweep's jobs in index order: sim_runs runs per alpha > 0
/// (alpha = 0 has no pool to simulate).
std::vector<SimJob> sim_jobs(const RevenueCurveOptions& options,
                             const std::vector<double>& alphas) {
  std::vector<SimJob> jobs;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    if (alphas[i] <= 0.0) continue;
    for (int r = 0; r < options.sim_runs; ++r) jobs.push_back({i, r});
  }
  return jobs;
}

}  // namespace

std::vector<support::SweepKey> revenue_curve_sweeps(
    const RevenueCurveOptions& options) {
  const std::vector<double> alphas = curve_alphas(options);
  std::vector<support::SweepKey> sweeps{
      {revenue_markov_fingerprint(options, alphas), alphas.size()}};
  if (options.sim_runs > 0) {
    sweeps.push_back({revenue_sim_fingerprint(options, alphas),
                      sim_jobs(options, alphas).size()});
  }
  return sweeps;
}

support::SweepKey threshold_curve_sweep(const ThresholdCurveOptions& options) {
  const std::vector<double> gammas =
      options.gammas.empty() ? fig10_gamma_grid() : options.gammas;
  support::Fingerprint fp;
  fp.mix("threshold_curve/v1");
  fp.mix(rewards::sweep_fingerprint(options.rewards));
  fp.mix(options.threshold.alpha_min);
  fp.mix(options.threshold.alpha_max);
  fp.mix(options.threshold.tolerance);
  fp.mix(options.threshold.max_lead);
  mix_grid(fp, gammas);
  return {fp.digest(), gammas.size()};
}

std::vector<RevenuePoint> revenue_curve(const RevenueCurveOptions& options,
                                        support::SweepOutcome* outcome) {
  const std::vector<double> alphas = curve_alphas(options);

  // Markov analysis: one independent job per alpha.
  const auto markov = support::run_checkpointed<RevenuePoint>(
      options.checkpoint, revenue_markov_fingerprint(options, alphas),
      alphas.size(),
      [&](std::size_t i) {
        const double alpha = alphas[i];
        RevenuePoint point;
        point.alpha = alpha;

        const markov::MiningParams params{alpha, options.gamma};
        const RevenueBreakdown r = compute_revenue(
            params, options.rewards, options.max_lead, options.chains);
        point.pool_revenue = pool_absolute_revenue(r, options.scenario);
        point.honest_revenue = honest_absolute_revenue(r, options.scenario);
        point.total_revenue = total_revenue(r, options.scenario);
        point.uncle_rate = r.regular_rate == 0.0
                               ? 0.0
                               : r.referenced_uncle_rate / r.regular_rate;
        return point;
      });

  std::vector<RevenuePoint> curve(alphas.size());
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    if (markov.have[i]) {
      curve[i] = markov.results[i];
    } else {
      curve[i].alpha = alphas[i];  // grid position even without a result
    }
  }

  bool complete = markov.complete();
  support::SweepOutcome combined = markov.outcome;

  // Monte-Carlo cross-checks: fan out over (alpha x run) jobs, the finest
  // granularity available, so a 19-alpha x 10-run sweep keeps every core
  // busy. Per-run seeds replicate the serial run_many chain exactly and the
  // per-point aggregation below absorbs in run order, so the curve is
  // bitwise-identical for any thread count -- and, checkpointed, across
  // resume/shard splits. The sim fingerprint excludes the scenario: per-run
  // results do not depend on it (it only weighs the aggregation), so records
  // are shared across scenario changes.
  if (options.sim_runs > 0) {
    const std::vector<SimJob> jobs = sim_jobs(options, alphas);

    const auto sims = support::run_checkpointed<sim::SimResult>(
        options.checkpoint, revenue_sim_fingerprint(options, alphas),
        jobs.size(), [&](std::size_t j) {
          const SimJob& job = jobs[j];
          sim::SimConfig sim_config;
          sim_config.alpha = alphas[job.point_index];
          sim_config.gamma = options.gamma;
          sim_config.rewards = options.rewards;
          sim_config.num_blocks = options.sim_blocks;
          sim_config.seed = support::derive_seed(
              point_seed(options, alphas[job.point_index]),
              static_cast<std::uint64_t>(job.run));
          return sim::run_simulation(sim_config);
        });

    // A point's simulation columns are filled only when every one of its
    // runs is present (absorbed in run order); with a partial shard they stay
    // nullopt until the merge run sees all shards' records.
    std::size_t j = 0;
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      if (alphas[i] <= 0.0) continue;
      const std::size_t first = j;
      bool all_present = true;
      for (int r = 0; r < options.sim_runs; ++r) {
        if (!sims.have[j++]) all_present = false;
      }
      if (!all_present) continue;
      sim::MultiRunSummary sum;
      for (std::size_t k = first; k < j; ++k) sum.absorb(sims.results[k]);
      RevenuePoint& point = curve[i];
      point.pool_revenue_sim = sum.pool_revenue(options.scenario).mean();
      point.honest_revenue_sim = sum.honest_revenue(options.scenario).mean();
      point.pool_revenue_sim_ci =
          sum.pool_revenue(options.scenario).ci_halfwidth();
      point.honest_revenue_sim_ci =
          sum.honest_revenue(options.scenario).ci_halfwidth();
    }
    ETHSM_ENSURES(j == sims.results.size(), "sim job accounting mismatch");
    complete = complete && sims.complete();
    combined.merge(sims.outcome);
  }

  ETHSM_EXPECTS(outcome != nullptr || complete,
                "incomplete sharded/budgeted sweep: pass a SweepOutcome to "
                "consume partial curves");
  if (outcome != nullptr) outcome->merge(combined);
  return curve;
}

std::vector<ThresholdPoint> threshold_curve(const ThresholdCurveOptions& options,
                                            support::SweepOutcome* outcome) {
  const std::vector<double> gammas =
      options.gammas.empty() ? fig10_gamma_grid() : options.gammas;

  // One job per gamma; each runs two bisections (both difficulty scenarios)
  // that share their common steps through options.threshold.chains.
  const auto sweep = support::run_checkpointed<ThresholdPoint>(
      options.checkpoint, threshold_curve_sweep(options).fingerprint,
      gammas.size(),
      [&](std::size_t i) {
        const double gamma = gammas[i];
        ThresholdPoint point;
        point.gamma = gamma;
        point.bitcoin = eyal_sirer_threshold(gamma);
        point.ethereum_scenario1 =
            profitability_threshold(gamma, options.rewards,
                                    Scenario::regular_rate_one,
                                    options.threshold);
        point.ethereum_scenario2 =
            profitability_threshold(gamma, options.rewards,
                                    Scenario::regular_and_uncle_rate_one,
                                    options.threshold);
        return point;
      });
  ETHSM_EXPECTS(outcome != nullptr || sweep.complete(),
                "incomplete sharded/budgeted sweep: pass a SweepOutcome to "
                "consume partial curves");

  std::vector<ThresholdPoint> curve(gammas.size());
  for (std::size_t i = 0; i < gammas.size(); ++i) {
    if (sweep.have[i]) {
      curve[i] = sweep.results[i];
    } else {
      curve[i].gamma = gammas[i];
    }
  }
  if (outcome != nullptr) outcome->merge(sweep.outcome);
  return curve;
}

}  // namespace ethsm::analysis

namespace ethsm::support {

using OptionalCodec = CheckpointCodec<std::optional<double>>;

void CheckpointCodec<analysis::RevenuePoint>::encode(
    ByteWriter& w, const analysis::RevenuePoint& point) {
  w.f64(point.alpha);
  w.f64(point.pool_revenue);
  w.f64(point.honest_revenue);
  w.f64(point.total_revenue);
  w.f64(point.uncle_rate);
  OptionalCodec::encode(w, point.pool_revenue_sim);
  OptionalCodec::encode(w, point.honest_revenue_sim);
  OptionalCodec::encode(w, point.pool_revenue_sim_ci);
  OptionalCodec::encode(w, point.honest_revenue_sim_ci);
}

analysis::RevenuePoint CheckpointCodec<analysis::RevenuePoint>::decode(
    ByteReader& r) {
  analysis::RevenuePoint point;
  point.alpha = r.f64();
  point.pool_revenue = r.f64();
  point.honest_revenue = r.f64();
  point.total_revenue = r.f64();
  point.uncle_rate = r.f64();
  point.pool_revenue_sim = OptionalCodec::decode(r);
  point.honest_revenue_sim = OptionalCodec::decode(r);
  point.pool_revenue_sim_ci = OptionalCodec::decode(r);
  point.honest_revenue_sim_ci = OptionalCodec::decode(r);
  return point;
}

void CheckpointCodec<analysis::ThresholdPoint>::encode(
    ByteWriter& w, const analysis::ThresholdPoint& point) {
  w.f64(point.gamma);
  w.f64(point.bitcoin);
  OptionalCodec::encode(w, point.ethereum_scenario1);
  OptionalCodec::encode(w, point.ethereum_scenario2);
}

analysis::ThresholdPoint CheckpointCodec<analysis::ThresholdPoint>::decode(
    ByteReader& r) {
  analysis::ThresholdPoint point;
  point.gamma = r.f64();
  point.bitcoin = r.f64();
  point.ethereum_scenario1 = OptionalCodec::decode(r);
  point.ethereum_scenario2 = OptionalCodec::decode(r);
  return point;
}

}  // namespace ethsm::support
