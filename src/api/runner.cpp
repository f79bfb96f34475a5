#include "api/runner.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <type_traits>

#include "analysis/absolute_revenue.h"
#include "analysis/attack_timeline.h"
#include "analysis/chain_memo.h"
#include "analysis/sweep.h"
#include "analysis/uncle_distance.h"
#include "net/net_sim.h"
#include "sim/delay_sim.h"
#include "sim/retarget_sim.h"
#include "sim/simulator.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/table.h"
#include "support/trace.h"

namespace ethsm::api {

namespace {

using support::TextTable;

sim::Scenario scenario_of(const ExperimentSpec& spec) {
  return spec.scenario == 1 ? sim::Scenario::regular_rate_one
                            : sim::Scenario::regular_and_uncle_rate_one;
}

/// Both difficulty scenarios, in the column order of every two-scenario
/// table (s1 = regular rate one, s2 = regular + uncle rate one).
constexpr sim::Scenario kScenarios[] = {
    sim::Scenario::regular_rate_one,
    sim::Scenario::regular_and_uncle_rate_one};

/// `given` unless the spec left it empty, else the kind's paper default.
template <typename T>
std::vector<T> or_default(const std::vector<T>& given,
                          std::vector<T> fallback) {
  return given.empty() ? std::move(fallback) : given;
}

/// The alpha grid of the stubborn and net tables.
const std::vector<double> kAlphaGrid = {0.10, 0.15, 0.20, 0.25,
                                        0.30, 0.35, 0.40, 0.45};

// --------------------------------------------------------- option builders --

analysis::RevenueCurveOptions revenue_options(const ExperimentSpec& spec,
                                              const SeriesSpec& series) {
  analysis::RevenueCurveOptions opt;
  opt.gamma = spec.gamma;
  opt.rewards = parse_reward_spec(series.rewards);
  opt.scenario = scenario_of(spec);
  opt.alphas = spec.alphas;
  opt.max_lead = spec.max_lead;
  opt.sim_runs = spec.sim_runs;
  opt.sim_blocks = spec.sim_blocks;
  opt.sim_seed = spec.sim_seed;
  return opt;
}

analysis::ThresholdOptions threshold_search_options(
    const ExperimentSpec& spec) {
  analysis::ThresholdOptions opt;
  opt.alpha_min = spec.alpha_min;
  opt.alpha_max = spec.alpha_max;
  opt.tolerance = spec.tolerance;
  opt.max_lead = spec.threshold_max_lead;
  return opt;
}

/// Per-alpha seed chain of the stubborn table: master + round(alpha * 1e4).
sim::SimConfig stubborn_sim_config(const ExperimentSpec& spec, double alpha) {
  sim::SimConfig config;
  config.alpha = alpha;
  config.gamma = spec.gamma;
  config.num_blocks = spec.sim_blocks;
  config.seed = spec.sim_seed + static_cast<std::uint64_t>(alpha * 1e4);
  config.rewards = parse_reward_spec(spec.rewards);
  return config;
}

/// Simulation-only kinds have no analysis fallback, so sim_runs = 0 (the
/// spec default, meaning "no cross-check" for the curve kinds) clamps to one
/// run instead of tripping the drivers' runs > 0 precondition.
int simulation_runs(const ExperimentSpec& spec) {
  return std::max(spec.sim_runs, 1);
}

net::FaultSpec net_fault_spec(const ExperimentSpec& spec) {
  net::FaultSpec faults;
  faults.drop = spec.net_fault_drop;
  faults.churn = net::parse_churn_spec(spec.net_fault_churn);
  faults.partition = net::parse_partition_spec(spec.net_fault_partition);
  faults.eclipse = net::parse_eclipse_spec(spec.net_fault_eclipse);
  return faults;
}

net::NetSimConfig net_sim_config(const ExperimentSpec& spec, double alpha) {
  net::NetSimConfig config;
  config.alpha = alpha;
  config.honest_nodes = static_cast<std::uint32_t>(spec.net_nodes);
  config.topology = net::parse_topology_spec(spec.net_topology);
  config.latency = net::parse_latency_spec(spec.net_latency);
  config.relay = net::relay_mode_from_string(spec.net_relay);
  config.faults = net_fault_spec(spec);
  config.num_blocks = spec.sim_blocks;
  config.seed = spec.sim_seed;
  config.rewards = parse_reward_spec(spec.rewards);
  return config;
}

void mix_grid(support::Fingerprint& fp, const std::vector<double>& grid) {
  fp.mix(static_cast<std::uint64_t>(grid.size()));
  for (double x : grid) fp.mix(x);
}

// ------------------------------------------------------------------ plans --
//
// Every kind is one plan function, plan_<kind>(spec, plan, result): it
// declares the checkpointed sweeps the kind issues, in order, each with a
// store fingerprint and job count that are pure functions of the spec, then
// -- once plan.complete() -- assembles tables and notes from the
// index-ordered results. run() executes the plan; planned_sweeps() lists it
// without running anything. plan_of() is the one per-kind dispatch.

class Plan {
 public:
  /// A listing plan: declarations only record their keys, and complete()
  /// stays false, so no assembler runs.
  Plan() = default;
  /// An executing plan; the --max-new-jobs budget is consumed across its
  /// sweeps in declaration order.
  explicit Plan(const support::SweepCheckpoint& checkpoint)
      : executing_(true), checkpoint_(checkpoint) {}

  /// `jobs` independent jobs, job(i) -> Result, persisted under `fingerprint`
  /// through CheckpointCodec<Result>; returns the results in index order
  /// (default-constructed where a sharded or budget-cut run has none yet).
  /// `computable = false` only loads: for jobs reading an earlier sweep that
  /// is still incomplete.
  template <typename Result, typename Job>
  std::vector<Result> sweep(std::uint64_t fingerprint, std::size_t jobs,
                            Job&& job, bool computable = true) {
    keys_.push_back({fingerprint, jobs});
    if (!executing_) return {};
    support::SweepCheckpoint checkpoint = checkpoint_;
    if (!computable) checkpoint.max_new_jobs = 0;
    auto swept = support::run_checkpointed<Result>(
        checkpoint, fingerprint, jobs, std::forward<Job>(job));
    settle(swept.outcome, jobs);
    return std::move(swept.results);
  }

  /// The sweeps `keys` of a library driver (revenue_curve, run_many, ...)
  /// that calls run_checkpointed itself: call(checkpoint, &outcome).
  template <typename Call>
  auto driver(const std::vector<support::SweepKey>& keys, Call&& call) {
    using Out = std::invoke_result_t<Call&, const support::SweepCheckpoint&,
                                     support::SweepOutcome*>;
    std::size_t jobs = 0;
    for (const support::SweepKey& key : keys) jobs += key.jobs;
    keys_.insert(keys_.end(), keys.begin(), keys.end());
    if (!executing_) return Out{};
    support::SweepOutcome outcome;
    Out out = call(checkpoint_, &outcome);
    settle(outcome, jobs);
    return out;
  }

  /// Every sweep declared so far holds all of its results (never listing).
  [[nodiscard]] bool complete() const noexcept {
    return executing_ && outcome_.complete();
  }
  [[nodiscard]] const support::SweepOutcome& outcome() const noexcept {
    return outcome_;
  }
  [[nodiscard]] const std::vector<support::SweepKey>& keys() const noexcept {
    return keys_;
  }
  /// The run's memo of cold stationary solves: jobs that price one chain
  /// under several schedules or scenarios share its solve. Lives exactly as
  /// long as the run.
  [[nodiscard]] analysis::ChainMemo& chains() noexcept { return chains_; }

 private:
  void settle(const support::SweepOutcome& swept, std::size_t jobs) {
    ETHSM_ENSURES(swept.jobs_total == jobs,
                  "a sweep ran a different job count than its plan declared");
    outcome_.merge(swept);
    checkpoint_.max_new_jobs -=
        std::min(swept.computed, checkpoint_.max_new_jobs);
  }

  bool executing_ = false;
  support::SweepCheckpoint checkpoint_;
  support::SweepOutcome outcome_;
  std::vector<support::SweepKey> keys_;
  analysis::ChainMemo chains_;
};

void plan_revenue(const ExperimentSpec& spec, Plan& plan,
                  ExperimentResult& result) {
  const auto series = or_default<SeriesSpec>(
      spec.series, {{spec.rewards, spec.rewards, "selfish"}});
  std::vector<std::vector<analysis::RevenuePoint>> curves;
  curves.reserve(series.size());
  for (const SeriesSpec& s : series) {
    analysis::RevenueCurveOptions opt = revenue_options(spec, s);
    opt.chains = &plan.chains();
    curves.push_back(plan.driver(
        analysis::revenue_curve_sweeps(opt),
        [&](const auto& checkpoint, auto* outcome) {
          opt.checkpoint = checkpoint;
          return analysis::revenue_curve(opt, outcome);
        }));
  }
  if (!plan.complete()) return;

  const bool single = series.size() == 1;
  const bool with_sim = spec.sim_runs > 0;
  ResultTable table;
  auto& cols = table.columns;
  cols.push_back(Column::make_numeric("alpha", 3));
  cols.push_back(Column::make_numeric("honest mining", 3));
  auto label_of = [&](const char* base, const SeriesSpec& s) {
    return single ? std::string(base) + " (analysis)"
                  : std::string(base) + " " + s.label;
  };
  for (std::size_t k = 0; k < series.size(); ++k) {
    cols.push_back(Column::make_numeric(label_of("Us", series[k])));
    if (with_sim) {
      cols.push_back(Column::make_numeric(
          single ? "Us (sim)" : "Us sim " + series[k].label));
      cols.push_back(Column::make_numeric(
          single ? "Us +-95%" : "Us +-95% " + series[k].label));
    }
  }
  for (std::size_t k = 0; k < series.size(); ++k) {
    cols.push_back(Column::make_numeric(label_of("Uh", series[k])));
    if (with_sim) {
      cols.push_back(Column::make_numeric(
          single ? "Uh (sim)" : "Uh sim " + series[k].label));
      cols.push_back(Column::make_numeric(
          single ? "Uh +-95%" : "Uh +-95% " + series[k].label));
    }
  }
  if (!single) {
    for (std::size_t k = 0; k < series.size(); ++k) {
      cols.push_back(Column::make_numeric("Tot " + series[k].label));
    }
  }

  const std::size_t rows = curves.front().size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t c = 0;
    cols[c++].numbers.push_back(curves[0][i].alpha);
    cols[c++].numbers.push_back(curves[0][i].alpha);
    for (const auto& curve : curves) {
      cols[c++].numbers.push_back(curve[i].pool_revenue);
      if (with_sim) {
        cols[c++].numbers.push_back(curve[i].pool_revenue_sim);
        cols[c++].numbers.push_back(curve[i].pool_revenue_sim_ci);
      }
    }
    for (const auto& curve : curves) {
      cols[c++].numbers.push_back(curve[i].honest_revenue);
      if (with_sim) {
        cols[c++].numbers.push_back(curve[i].honest_revenue_sim);
        cols[c++].numbers.push_back(curve[i].honest_revenue_sim_ci);
      }
    }
    if (!single) {
      for (const auto& curve : curves) {
        cols[c++].numbers.push_back(curve[i].total_revenue);
      }
    }
  }
  result.tables.push_back(std::move(table));

  for (std::size_t k = 0; k < series.size(); ++k) {
    double crossing = -1.0;
    for (const auto& p : curves[k]) {
      if (p.alpha > 0.0 && p.pool_revenue >= p.alpha) {
        crossing = p.alpha;
        break;
      }
    }
    std::ostringstream note;
    note << "[" << series[k].label << "] first grid alpha with Us >= alpha: "
         << (crossing >= 0.0 ? TextTable::num(crossing, 3) : "none")
         << "; total revenue at alpha=" << TextTable::num(
                curves[k].back().alpha, 3)
         << ": " << TextTable::pct(curves[k].back().total_revenue);
    result.notes.push_back(note.str());
  }
}

void plan_threshold(const ExperimentSpec& spec, Plan& plan,
                    ExperimentResult& result) {
  analysis::ThresholdCurveOptions opt;
  opt.rewards = parse_reward_spec(spec.rewards);
  opt.gammas = spec.gammas;
  opt.threshold = threshold_search_options(spec);
  opt.threshold.chains = &plan.chains();
  const auto curve = plan.driver(
      {analysis::threshold_curve_sweep(opt)},
      [&](const auto& checkpoint, auto* outcome) {
        opt.checkpoint = checkpoint;
        return analysis::threshold_curve(opt, outcome);
      });
  if (!plan.complete()) return;

  ResultTable table;
  table.columns = {Column::make_numeric("gamma", 2),
                   Column::make_numeric("Bitcoin (Eyal-Sirer)"),
                   Column::make_numeric("Ethereum scenario 1", 4, "never"),
                   Column::make_numeric("Ethereum scenario 2", 4, "never"),
                   Column::make_text("scn1 vs BTC"),
                   Column::make_text("scn2 vs BTC")};
  double crossover = -1.0;
  double previous_delta = -1.0;
  for (const auto& p : curve) {
    table.columns[0].numbers.push_back(p.gamma);
    table.columns[1].numbers.push_back(p.bitcoin);
    table.columns[2].numbers.push_back(p.ethereum_scenario1);
    table.columns[3].numbers.push_back(p.ethereum_scenario2);
    const double d1 = p.ethereum_scenario1.value_or(1.0) - p.bitcoin;
    const double d2 = p.ethereum_scenario2.value_or(1.0) - p.bitcoin;
    table.columns[4].text.push_back(d1 < 0 ? "below" : "above");
    table.columns[5].text.push_back(d2 < 0 ? "below" : "above");
    if (previous_delta <= 0.0 && d2 > 0.0 && crossover < 0.0 && p.gamma > 0) {
      crossover = p.gamma;
    }
    previous_delta = d2;
  }
  result.tables.push_back(std::move(table));
  result.notes.push_back(
      "Scenario 2 crosses above Bitcoin at gamma ~ " +
      (crossover > 0 ? TextTable::num(crossover, 2) : std::string("n/a")) +
      "   (paper: gamma ~ 0.39)");
  result.notes.push_back(
      "Landmark: Bitcoin threshold at gamma=0.5 is 0.25 (Eyal-Sirer).");
}

void plan_reward_design(const ExperimentSpec& spec, Plan& plan,
                        ExperimentResult& result) {
  const auto series = or_default<SeriesSpec>(
      spec.series, {{"Ku(.) Byzantium (8-d)/8", "byzantium", "selfish"},
                    {"Ku = 4/8 flat (proposal)", "flat:0.5", "selfish"}});
  const auto kus = or_default(
      spec.ku_values, {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875});
  auto opt = threshold_search_options(spec);
  opt.chains = &plan.chains();
  // The headline schedules, then the flat Ku sweep.
  std::vector<rewards::RewardConfig> configs;
  for (const SeriesSpec& s : series) {
    configs.push_back(parse_reward_spec(s.rewards));
  }
  for (double ku : kus) {
    configs.push_back(rewards::RewardConfig::ethereum_flat(ku));
  }

  support::Fingerprint fp;
  fp.mix("reward_design/threshold/v1").mix(spec.gamma).mix(opt.alpha_min);
  fp.mix(opt.alpha_max).mix(opt.tolerance).mix(opt.max_lead);
  fp.mix(static_cast<std::uint64_t>(configs.size()));
  for (const auto& config : configs) {
    fp.mix(rewards::sweep_fingerprint(config));
  }
  // Job 2c + k: the threshold of configs[c] under kScenarios[k].
  const auto thresholds = plan.sweep<std::optional<double>>(
      fp.digest(), 2 * configs.size(), [&](std::size_t j) {
        return analysis::profitability_threshold(spec.gamma, configs[j / 2],
                                                 kScenarios[j % 2], opt);
      });
  if (!plan.complete()) return;

  ResultTable headline;
  headline.title = "Thresholds per schedule (gamma = " +
                   TextTable::num(spec.gamma, 2) + ")";
  headline.columns = {Column::make_text("Schedule"),
                      Column::make_numeric("alpha* scenario 1", 3, "never"),
                      Column::make_numeric("alpha* scenario 2", 3, "never")};
  ResultTable sweep;
  sweep.title = "Designer sweep: flat Ku value vs threshold";
  sweep.columns = {Column::make_numeric("ku", 4),
                   Column::make_numeric("threshold_s1", 3, "never"),
                   Column::make_numeric("threshold_s2", 3, "never")};
  for (std::size_t c = 0; c < configs.size(); ++c) {
    ResultTable& table = c < series.size() ? headline : sweep;
    if (c < series.size()) {
      table.columns[0].text.push_back(series[c].label);
    } else {
      table.columns[0].numbers.push_back(kus[c - series.size()]);
    }
    table.columns[1].numbers.push_back(thresholds[2 * c]);
    table.columns[2].numbers.push_back(thresholds[2 * c + 1]);
  }
  result.tables.push_back(std::move(headline));
  result.tables.push_back(std::move(sweep));
  result.csv_table = 1;  // the historical sec6 CSV payload
  result.notes.push_back(
      "Lower flat values resist selfish mining better but weaken the "
      "anti-centralization incentive uncles were designed for (Sec. VI).");
}

void plan_uncle_distance(const ExperimentSpec& spec, Plan& plan,
                         ExperimentResult& result) {
  const auto alphas = or_default(spec.alphas, {0.3, 0.45});

  std::vector<sim::MultiRunSummary> sims;
  if (spec.sim_runs > 0) {
    for (double alpha : alphas) {
      sim::SimConfig config;
      config.alpha = alpha;
      config.gamma = spec.gamma;
      config.num_blocks = spec.sim_blocks;
      config.seed = spec.sim_seed;
      config.rewards = parse_reward_spec(spec.rewards);
      sims.push_back(plan.driver(
          {{sim::run_many_fingerprint(config, spec.sim_runs),
            static_cast<std::size_t>(spec.sim_runs)}},
          [&](const auto& checkpoint, auto* outcome) {
            return sim::run_many(config, spec.sim_runs, checkpoint, outcome);
          }));
    }
  }

  support::Fingerprint fp;
  fp.mix("uncle_distance/analysis/v1").mix(spec.gamma).mix(spec.max_lead);
  mix_grid(fp, alphas);
  const auto analysis_side = plan.sweep<analysis::UncleDistanceDistribution>(
      fp.digest(), alphas.size(), [&](std::size_t i) {
        return analysis::honest_uncle_distance_distribution(
            {alphas[i], spec.gamma}, spec.max_lead);
      });
  if (!plan.complete()) return;

  ResultTable table;
  table.columns.push_back(Column::make_text("Referencing distance"));
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    const std::string tag = "alpha=" + TextTable::num(alphas[a], 2);
    table.columns.push_back(Column::make_numeric(tag + " (analysis)", 3));
    if (spec.sim_runs > 0) {
      table.columns.push_back(Column::make_numeric(tag + " (sim)", 3));
    }
  }
  for (int d = 1; d <= 6; ++d) {
    std::size_t c = 0;
    table.columns[c++].text.push_back(std::to_string(d));
    for (std::size_t a = 0; a < alphas.size(); ++a) {
      table.columns[c++].numbers.push_back(
          analysis_side[a].fraction[static_cast<std::size_t>(d)]);
      if (spec.sim_runs > 0) {
        table.columns[c++].numbers.push_back(
            sims[a].uncle_distance_honest.conditional_fraction(
                static_cast<std::size_t>(d), 1, 6));
      }
    }
  }
  {
    std::size_t c = 0;
    table.columns[c++].text.push_back("Expectation");
    for (std::size_t a = 0; a < alphas.size(); ++a) {
      table.columns[c++].numbers.push_back(analysis_side[a].expectation);
      if (spec.sim_runs > 0) {
        table.columns[c++].numbers.push_back(
            sims[a].uncle_distance_honest.conditional_mean(1, 6));
      }
    }
  }
  result.tables.push_back(std::move(table));

  if (spec.sim_runs > 0) {
    result.notes.push_back(
        "Pool uncles are always referenced at distance 1 (Remark 5): sim "
        "pool d=1 fraction = " +
        TextTable::num(
            sims.back().uncle_distance_pool.conditional_fraction(1, 1, 6),
            3));
  }
}

void plan_reward_table(ExperimentResult& result) {
  ResultTable inventory;
  inventory.title = "Table I: mining rewards in Ethereum and Bitcoin";
  inventory.columns = {
      Column::make_text("Reward type"), Column::make_text("Ethereum"),
      Column::make_text("Bitcoin"), Column::make_text("Purpose")};
  for (const auto& row : rewards::table1_reward_inventory()) {
    inventory.columns[0].text.push_back(row.reward_type);
    inventory.columns[1].text.push_back(row.in_ethereum ? "yes" : "no");
    inventory.columns[2].text.push_back(row.in_bitcoin ? "yes" : "no");
    inventory.columns[3].text.push_back(row.purpose);
  }
  result.tables.push_back(std::move(inventory));

  ResultTable schedule;
  schedule.title = "Concrete schedules (relative to Ks = 1)";
  schedule.columns = {Column::make_numeric("distance d", 0),
                      Column::make_numeric("Ku(d) Byzantium"),
                      Column::make_numeric("Ku(d) flat 4/8"),
                      Column::make_numeric("Kn(d) nephew")};
  const rewards::ByzantiumUncleSchedule byzantium;
  const rewards::FlatUncleSchedule flat(0.5);
  const rewards::NephewRewardSchedule nephew;
  for (int d = 1; d <= 7; ++d) {
    schedule.columns[0].numbers.push_back(d);
    schedule.columns[1].numbers.push_back(byzantium.reward(d));
    schedule.columns[2].numbers.push_back(flat.reward(d));
    schedule.columns[3].numbers.push_back(nephew.reward(d));
  }
  result.tables.push_back(std::move(schedule));
  result.notes.push_back(
      "Ku(d) = (8-d)/8 for d in 1..6 (paper Eq. (7)); Kn = 1/32 within the "
      "same horizon.");
}

void plan_stubborn_sim(const ExperimentSpec& spec, Plan& plan,
                       ExperimentResult& result) {
  std::vector<SeriesSpec> series = spec.series;
  if (series.empty()) {
    for (const auto& [label, strategy] :
         {std::pair<const char*, const char*>{"Alg.1", "selfish"},
          {"L", "lead"},
          {"F", "fork"},
          {"T1", "trail:1"},
          {"T2", "trail:2"},
          {"L+F", "lead+fork"}}) {
      series.push_back({label, spec.rewards, strategy});
    }
  }
  const auto alphas = or_default(spec.alphas, kAlphaGrid);
  const sim::Scenario scenario = scenario_of(spec);
  const int runs = simulation_runs(spec);

  // summaries[a][k]: variant k at alphas[a].
  std::vector<std::vector<sim::MultiRunSummary>> summaries(alphas.size());
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    const sim::SimConfig config = stubborn_sim_config(spec, alphas[a]);
    for (const SeriesSpec& s : series) {
      const auto strategy = parse_strategy_spec(s.strategy);
      summaries[a].push_back(plan.driver(
          {{sim::run_stubborn_many_fingerprint(config, strategy, runs),
            static_cast<std::size_t>(runs)}},
          [&](const auto& checkpoint, auto* outcome) {
            return sim::run_stubborn_many(config, strategy, runs, checkpoint,
                                          outcome);
          }));
    }
  }
  if (!plan.complete()) return;

  ResultTable table;
  table.columns.push_back(Column::make_numeric("alpha", 2));
  table.columns.push_back(Column::make_numeric("honest", 2));
  for (const SeriesSpec& s : series) {
    table.columns.push_back(Column::make_numeric(s.label));
  }
  table.columns.push_back(Column::make_text("best"));
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    std::size_t c = 0;
    table.columns[c++].numbers.push_back(alphas[a]);
    table.columns[c++].numbers.push_back(alphas[a]);
    std::size_t best = 0;
    double best_revenue = 0.0;
    for (std::size_t k = 0; k < series.size(); ++k) {
      const double revenue = summaries[a][k].pool_revenue(scenario).mean();
      table.columns[c++].numbers.push_back(revenue);
      if (k == 0 || revenue > best_revenue) {
        best = k;
        best_revenue = revenue;
      }
    }
    table.columns[c].text.push_back(series[best].label);
  }
  result.tables.push_back(std::move(table));
  result.notes.push_back(
      "Nayak et al. showed stubborn variants can beat vanilla selfish mining "
      "in parts of the (alpha, gamma) plane; this table answers the same "
      "question with Ethereum's uncle and nephew rewards in play.");
}

void plan_timeline(const ExperimentSpec& spec, Plan& plan,
                   ExperimentResult& result) {
  const auto config = parse_reward_spec(spec.rewards);
  const auto alphas = or_default(
      spec.alphas, {0.06, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45});

  support::Fingerprint fp;
  fp.mix("timeline/v1").mix(spec.gamma).mix(spec.max_lead);
  fp.mix(rewards::sweep_fingerprint(config));
  mix_grid(fp, alphas);
  // Job 2a + k: the timeline at alphas[a] under kScenarios[k].
  const auto timelines = plan.sweep<analysis::AttackTimeline>(
      fp.digest(), 2 * alphas.size(), [&](std::size_t j) {
        return analysis::compute_attack_timeline(
            {alphas[j / 2], spec.gamma}, config, kScenarios[j % 2],
            spec.max_lead, &plan.chains());
      });
  if (!plan.complete()) return;

  ResultTable table;
  table.columns = {Column::make_numeric("alpha", 2),
                   Column::make_numeric("bleed rate (s1)"),
                   Column::make_numeric("gain rate (s1)"),
                   Column::make_numeric("breakeven blocks (s1)", 0, "never"),
                   Column::make_numeric("bleed rate (s2)"),
                   Column::make_numeric("gain rate (s2)"),
                   Column::make_numeric("breakeven blocks (s2)", 0, "never")};
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    std::size_t c = 0;
    table.columns[c++].numbers.push_back(alphas[a]);
    for (std::size_t k = 0; k < 2; ++k) {
      const analysis::AttackTimeline& t = timelines[2 * a + k];
      table.columns[c++].numbers.push_back(t.initial_bleed_rate());
      table.columns[c++].numbers.push_back(t.steady_gain_rate());
      table.columns[c++].numbers.push_back(
          t.breakeven_time(spec.phase1_blocks));
    }
  }
  result.tables.push_back(std::move(table));
  result.notes.push_back(
      "Even above the threshold the attacker must pre-finance the bleed "
      "through one retarget window; EIP100 both raises the threshold AND "
      "stretches the repayment period.");
}

void plan_retarget(const ExperimentSpec& spec, Plan& plan,
                   ExperimentResult& result) {
  const auto rewards_config = parse_reward_spec(spec.rewards);
  auto retarget_config = [&](sim::Scenario scenario) {
    sim::RetargetConfig config;
    config.base.alpha = spec.alpha;
    config.base.gamma = spec.gamma;
    config.base.seed = spec.sim_seed;
    config.base.rewards = rewards_config;
    config.controller.scenario = scenario;
    config.controller.target_rate = 1.0;
    config.controller.initial_difficulty = 1.0;
    config.epoch_blocks = spec.epoch_blocks;
    config.epochs = spec.epochs;
    return config;
  };

  const std::uint64_t rewards_fp = rewards::sweep_fingerprint(rewards_config);
  support::Fingerprint run_fp;
  run_fp.mix("retarget/runs/v1").mix(spec.alpha).mix(spec.gamma);
  run_fp.mix(spec.sim_seed).mix(rewards_fp).mix(spec.epoch_blocks);
  run_fp.mix(spec.epochs);
  // Job k: the live-retargeting run under kScenarios[k].
  const auto runs = plan.sweep<sim::RetargetResult>(
      run_fp.digest(), 2, [&](std::size_t k) {
        return sim::run_retarget_simulation(retarget_config(kScenarios[k]));
      });

  support::Fingerprint static_fp;
  static_fp.mix("retarget/static/v1").mix(spec.alpha).mix(spec.gamma);
  static_fp.mix(rewards_fp).mix(spec.max_lead);
  // The static analysis both runs are compared against (one solve).
  const auto statics = plan.sweep<analysis::RevenueBreakdown>(
      static_fp.digest(), 1, [&](std::size_t) {
        return analysis::compute_revenue({spec.alpha, spec.gamma},
                                         rewards_config, spec.max_lead,
                                         &plan.chains());
      });
  if (!plan.complete()) return;

  for (std::size_t k = 0; k < 2; ++k) {
    const sim::Scenario scenario = kScenarios[k];
    const sim::RetargetResult& run = runs[k];
    ResultTable table;
    table.title = to_string(scenario);
    table.columns = {Column::make_numeric("epoch", 0),
                     Column::make_numeric("difficulty"),
                     Column::make_numeric("regular/s", 3),
                     Column::make_numeric("counted/s", 3),
                     Column::make_numeric("pool reward/s")};
    const std::size_t step = std::max<std::size_t>(run.epochs.size() / 6, 1);
    for (std::size_t i = 0; i < run.epochs.size(); i += step) {
      const auto& e = run.epochs[i];
      table.columns[0].numbers.push_back(static_cast<double>(i));
      table.columns[1].numbers.push_back(e.difficulty);
      table.columns[2].numbers.push_back(e.regular_rate);
      table.columns[3].numbers.push_back(e.counted_rate);
      table.columns[4].numbers.push_back(e.pool_reward_rate);
    }
    result.tables.push_back(std::move(table));

    const double us = analysis::pool_absolute_revenue(statics[0], scenario);
    std::ostringstream note;
    note << "[" << to_string(scenario) << "] steady counted rate "
         << TextTable::num(run.steady_counted_rate, 4)
         << " (target 1.0); pool revenue per counted block "
         << TextTable::num(run.steady_pool_revenue_per_counted_block(), 4)
         << " vs static analysis Us = " << TextTable::num(us, 4)
         << "; total reward rate/s "
         << TextTable::num(
                run.steady_pool_reward_rate + run.steady_honest_reward_rate,
                4);
    result.notes.push_back(note.str());
  }
}

void plan_delay(const ExperimentSpec& spec, Plan& plan,
                ExperimentResult& result) {
  const auto delays = or_default(spec.delays, {0.05, 0.10, 0.15, 0.25, 0.40});
  const int runs = simulation_runs(spec);

  std::vector<sim::DelayMultiRunSummary> summaries;
  for (double delay : delays) {
    sim::DelaySimConfig config;
    config.shares = spec.shares;
    config.delay = delay;
    config.num_blocks = spec.sim_blocks;
    config.seed = spec.sim_seed;
    config.rewards = parse_reward_spec(spec.rewards);
    summaries.push_back(plan.driver(
        {{sim::run_delay_many_fingerprint(config, runs),
          static_cast<std::size_t>(runs)}},
        [&](const auto& checkpoint, auto* outcome) {
          return sim::run_delay_many(config, runs, checkpoint, outcome);
        }));
  }
  if (!plan.complete()) return;

  ResultTable table;
  table.columns = {Column::make_numeric("delay (block intervals)", 2),
                   Column::make_numeric("stale/regular"),
                   Column::make_numeric("uncle/regular"),
                   Column::make_numeric("uncle +-95%"),
                   Column::make_numeric("referenced fraction", 3)};
  for (std::size_t i = 0; i < delays.size(); ++i) {
    const auto& s = summaries[i];
    table.columns[0].numbers.push_back(delays[i]);
    table.columns[1].numbers.push_back(s.stale_rate.mean());
    table.columns[2].numbers.push_back(s.uncle_rate.mean());
    table.columns[3].numbers.push_back(s.uncle_rate.ci_halfwidth());
    table.columns[4].numbers.push_back(
        s.stale_rate.mean() > 0 ? s.uncle_rate.mean() / s.stale_rate.mean()
                                : 0.0);
  }
  result.tables.push_back(std::move(table));
  result.notes.push_back(
      "Real Ethereum context: delay/interval ~ 0.15 gives an uncle rate near "
      "the ~7-10% observed on-chain (" + std::to_string(runs) +
      " runs per point).");
}

void plan_net(const ExperimentSpec& spec, Plan& plan,
              ExperimentResult& result) {
  const auto alphas = or_default(spec.alphas, kAlphaGrid);
  const int runs = simulation_runs(spec);
  const sim::Scenario scenario = scenario_of(spec);
  const auto rewards_config = parse_reward_spec(spec.rewards);

  auto net_sweep = [&](const net::NetSimConfig& config) {
    return plan.driver({{net::run_net_many_fingerprint(config, runs),
                         static_cast<std::size_t>(runs)}},
                       [&](const auto& checkpoint, auto* outcome) {
                         return net::run_net_many(config, runs, checkpoint,
                                                  outcome);
                       });
  };
  // With faults enabled every alpha also runs a fault-free baseline (same
  // seed, same topology), so the table can show what the faults changed; the
  // two sweeps carry distinct fingerprints and share the checkpoint safely.
  const bool faulted = net_fault_spec(spec).any();
  support::Fingerprint markov_fp;
  markov_fp.mix("net/markov/v1");
  std::vector<net::NetMultiRunSummary> summaries;
  std::vector<net::NetMultiRunSummary> clean;
  for (double alpha : alphas) {
    const net::NetSimConfig config = net_sim_config(spec, alpha);
    // Measured gamma is a pure function of this sweep, so its fingerprint
    // keys the Markov columns below.
    markov_fp.mix(net::run_net_many_fingerprint(config, runs));
    summaries.push_back(net_sweep(config));
  }
  if (faulted) {
    for (double alpha : alphas) {
      net::NetSimConfig config = net_sim_config(spec, alpha);
      config.faults = net::FaultSpec{};
      clean.push_back(net_sweep(config));
    }
  }

  // The Markov model at the measured gamma (does the aggregate theory
  // predict the network?) and at the spec's fixed gamma (what assuming
  // gamma would get wrong). Job 2i + k: alphas[i] at the measured (k = 0)
  // or the fixed (k = 1) gamma. Until every sim run is merged the measured
  // gamma is unknown, so this sweep then only loads.
  markov_fp.mix(spec.gamma).mix(spec.max_lead);
  markov_fp.mix(rewards::sweep_fingerprint(rewards_config));
  mix_grid(markov_fp, alphas);
  const auto markov = plan.sweep<analysis::RevenueBreakdown>(
      markov_fp.digest(), 2 * alphas.size(),
      [&](std::size_t j) {
        const std::size_t i = j / 2;
        const double gamma = j % 2 == 0 ? summaries[i].gamma.mean()
                                        : spec.gamma;
        return analysis::compute_revenue({alphas[i], gamma}, rewards_config,
                                         spec.max_lead, &plan.chains());
      },
      plan.complete());
  if (!plan.complete()) return;

  // Headline: the measured-gamma curve against both Markov columns. Under
  // faults, the clean-network baseline columns show the drift.
  ResultTable table;
  table.title = "Endogenous gamma on " + spec.net_topology + " / " +
                spec.net_latency + " (" + std::to_string(spec.net_nodes) +
                " honest nodes, relay=" + spec.net_relay +
                (faulted ? ", faults on" : "") + ")";
  table.columns = {Column::make_numeric("alpha", 3),
                   Column::make_numeric("gamma (net)"),
                   Column::make_numeric("gamma +-95%"),
                   Column::make_numeric("Us (net)"),
                   Column::make_numeric("Us markov@net gamma"),
                   Column::make_numeric("Us markov@fixed gamma"),
                   Column::make_numeric("Uh (net)"),
                   Column::make_numeric("uncle rate"),
                   Column::make_numeric("stale rate")};
  if (faulted) {
    table.columns.push_back(Column::make_numeric("gamma (clean)"));
    table.columns.push_back(Column::make_numeric("Us (clean)"));
  }
  double gamma_min = 1.0;
  double gamma_max = 0.0;
  std::uint64_t races = 0;
  std::uint64_t natural_forks = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t dropped = 0;
  std::uint64_t mining_lost = 0;
  std::uint64_t downtimes = 0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    const net::NetMultiRunSummary& s = summaries[i];
    const double gamma_net = s.gamma.mean();
    std::size_t c = 0;
    table.columns[c++].numbers.push_back(alphas[i]);
    table.columns[c++].numbers.push_back(gamma_net);
    table.columns[c++].numbers.push_back(s.gamma.ci_halfwidth());
    table.columns[c++].numbers.push_back(s.pool_revenue(scenario).mean());
    table.columns[c++].numbers.push_back(
        analysis::pool_absolute_revenue(markov[2 * i], scenario));
    table.columns[c++].numbers.push_back(
        analysis::pool_absolute_revenue(markov[2 * i + 1], scenario));
    table.columns[c++].numbers.push_back(s.honest_revenue(scenario).mean());
    table.columns[c++].numbers.push_back(s.uncle_rate.mean());
    table.columns[c++].numbers.push_back(s.stale_rate.mean());
    if (faulted) {
      table.columns[c++].numbers.push_back(clean[i].gamma.mean());
      table.columns[c++].numbers.push_back(
          clean[i].pool_revenue(scenario).mean());
    }
    gamma_min = std::min(gamma_min, gamma_net);
    gamma_max = std::max(gamma_max, gamma_net);
    races += s.race_samples;
    natural_forks += s.natural_forks;
    resyncs += s.resyncs;
    dropped += s.faults_messages_dropped;
    mining_lost += s.faults_mining_lost;
    downtimes += s.faults_downtime_events;
  }
  result.tables.push_back(std::move(table));

  // Propagation-distance breakdown, pooled across the alpha grid: nodes far
  // from the attacker should waste more blocks.
  ResultTable dist;
  dist.title = "Honest stale fraction by hop distance from the attacker";
  dist.columns = {Column::make_numeric("hops", 0),
                  Column::make_numeric("honest blocks", 0),
                  Column::make_numeric("stale fraction", 4)};
  std::vector<std::uint64_t> blocks_by_d;
  std::vector<std::uint64_t> stale_by_d;
  for (const auto& s : summaries) {
    if (blocks_by_d.size() < s.distance_blocks.size()) {
      blocks_by_d.resize(s.distance_blocks.size(), 0);
      stale_by_d.resize(s.distance_stale.size(), 0);
    }
    for (std::size_t d = 0; d < s.distance_blocks.size(); ++d) {
      blocks_by_d[d] += s.distance_blocks[d];
      stale_by_d[d] += s.distance_stale[d];
    }
  }
  for (std::size_t d = 1; d < blocks_by_d.size(); ++d) {
    dist.columns[0].numbers.push_back(static_cast<double>(d));
    dist.columns[1].numbers.push_back(static_cast<double>(blocks_by_d[d]));
    dist.columns[2].numbers.push_back(
        blocks_by_d[d] == 0 ? 0.0
                            : static_cast<double>(stale_by_d[d]) /
                                  static_cast<double>(blocks_by_d[d]));
  }
  result.tables.push_back(std::move(dist));

  std::ostringstream note;
  note << "Measured gamma spans [" << TextTable::num(gamma_min, 3) << ", "
       << TextTable::num(gamma_max, 3) << "] across the alpha grid ("
       << races << " races; the Markov model treats it as a free parameter).";
  result.notes.push_back(note.str());
  if (natural_forks + resyncs > 0) {
    std::ostringstream robustness;
    robustness << "Attack-model robustness: " << natural_forks
               << " honest latency fork(s) invisible to Algorithm 1, "
               << resyncs << " resync(s) after untracked overtakes.";
    result.notes.push_back(robustness.str());
  }
  if (faulted) {
    std::ostringstream faults_note;
    faults_note << "Fault injection: " << dropped << " message(s) dropped, "
                << mining_lost << " honest mining event(s) lost to downtime, "
                << downtimes << " crash(es); clean-network baseline in the "
                << "gamma/Us (clean) columns.";
    result.notes.push_back(faults_note.str());
  }
}

void plan_of(const ExperimentSpec& spec, Plan& plan,
             ExperimentResult& result) {
  switch (spec.kind) {
    case ExperimentKind::revenue:
      return plan_revenue(spec, plan, result);
    case ExperimentKind::threshold:
      return plan_threshold(spec, plan, result);
    case ExperimentKind::reward_design:
      return plan_reward_design(spec, plan, result);
    case ExperimentKind::uncle_distance:
      return plan_uncle_distance(spec, plan, result);
    case ExperimentKind::reward_table:
      if (plan.complete()) plan_reward_table(result);
      return;
    case ExperimentKind::stubborn_sim:
      return plan_stubborn_sim(spec, plan, result);
    case ExperimentKind::timeline:
      return plan_timeline(spec, plan, result);
    case ExperimentKind::retarget:
      return plan_retarget(spec, plan, result);
    case ExperimentKind::delay:
      return plan_delay(spec, plan, result);
    case ExperimentKind::net:
      return plan_net(spec, plan, result);
  }
}

}  // namespace

ExperimentResult run(const ExperimentSpec& spec, const RunOptions& options) {
  // One span per experiment, named by kind: the outermost run-side scope in
  // a --trace file (cells/serve requests wrap it from the outside).
  support::trace::Span span("api.run " + std::string(to_string(spec.kind)));
  ExperimentResult result;
  result.spec = spec;
  result.spec_fingerprint = spec_fingerprint(spec);
  result.checkpoint_enabled = options.checkpoint.enabled();

  Plan plan(options.checkpoint);
  plan_of(spec, plan, result);
  result.outcome = plan.outcome();
  for (const support::SweepKey& key : plan.keys()) {
    result.sweep_fingerprints.push_back(key.fingerprint);
  }
  return result;
}

std::vector<support::SweepKey> planned_sweeps(const ExperimentSpec& spec) {
  Plan plan;
  ExperimentResult unused;
  plan_of(spec, plan, unused);
  return plan.keys();
}

std::vector<std::uint64_t> sweep_fingerprints(const ExperimentSpec& spec) {
  std::vector<std::uint64_t> fps;
  for (const support::SweepKey& key : planned_sweeps(spec)) {
    fps.push_back(key.fingerprint);
  }
  return fps;
}

}  // namespace ethsm::api
