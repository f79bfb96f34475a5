// Layer-boundary spans for the traced ethsm binary.
//
// Every public entry point listed in CMakeLists.txt (PERFBENCH_WRAPS) is
// linked with `ld --wrap=<symbol>`: calls from other translation units of
// libethsm.a land in the __wrap_ function below, which times the call and
// forwards to __real_. Calls inside the defining translation unit are not
// redirected, so e.g. compute_revenue(pi, model, cfg) is only seen where
// another file calls it; its time otherwise shows up as the self time of the
// enclosing compute_revenue(params, ...) span.
//
// Spans are kept in per-thread buffers and written once, at process exit,
// to $PERFBENCH_SPANS/<pid>.json together with a snapshot of the program's
// own metrics registry. Timestamps are CLOCK_MONOTONIC nanoseconds (the
// clock behind std::chrono::steady_clock and Python's time.monotonic_ns), so
// the benchmark driver can line spans up with its own timings.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/revenue.h"
#include "analysis/threshold.h"
#include "api/render.h"
#include "api/study.h"
#include "markov/stationary.h"
#include "markov/transition_model.h"
#include "net/net_sim.h"
#include "sim/delay_sim.h"
#include "sim/simulator.h"
#include "support/checkpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace {

// Order matches kLayerNames; the driver reads the names from the dump.
enum Layer : int {
  kBuild,
  kSolve,
  kRevenue,
  kKernel,
  kThreshold,
  kSim,
  kNet,
  kStoreOpen,
  kStoreAppend,
  kRender,
  kStudy,
};
constexpr const char* kLayerNames[] = {
    "markov.build",    "markov.solve",      "analysis.revenue",
    "analysis.kernel", "analysis.threshold", "sim.mc",
    "net.many",        "checkpoint.open",   "checkpoint.append",
    "api.render",      "api.study",
};

struct Span {
  int layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct ThreadLog {
  std::mutex mu;  // the owning thread appends; dump() reads at exit
  std::vector<Span> spans;
};

struct Recorder {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadLog>> logs;
  std::atomic<std::uint64_t> sim_blocks{0};
  std::atomic<std::uint64_t> solver_iterations{0};
  std::atomic<std::int64_t> trace_origin_ns{0};
};

// Leaked on purpose: pool threads may still touch it during static
// destruction, after dump() has run.
Recorder& recorder() {
  static Recorder* r = new Recorder;
  return *r;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadLog& thread_log() {
  thread_local ThreadLog* log = [] {
    Recorder& r = recorder();
    std::lock_guard<std::mutex> guard(r.mu);
    r.logs.push_back(std::make_unique<ThreadLog>());
    return r.logs.back().get();
  }();
  return *log;
}

class Timed {
 public:
  explicit Timed(Layer layer) : layer_(layer), start_ns_(now_ns()) {}
  ~Timed() {
    const std::int64_t end = now_ns();
    ThreadLog& log = thread_log();
    std::lock_guard<std::mutex> guard(log.mu);
    log.spans.push_back({layer_, start_ns_, end});
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Layer layer_;
  std::int64_t start_ns_;
};

void count_blocks(std::uint64_t blocks_per_run, std::size_t runs) {
  recorder().sim_blocks += blocks_per_run * runs;
}

// Runs actually simulated by a checkpointed sweep: the computed-job delta
// when the caller asks for an outcome, else every run.
template <class Call>
auto sweep_counted(std::uint64_t blocks_per_run, int runs,
                   ethsm::support::SweepOutcome* outcome, Call&& call) {
  const std::size_t before = outcome ? outcome->computed : 0;
  auto result = call();
  count_blocks(blocks_per_run, outcome ? outcome->computed - before
                                       : static_cast<std::size_t>(runs));
  return result;
}

void dump() {
  const char* dir = std::getenv("PERFBENCH_SPANS");
  if (dir == nullptr || *dir == '\0') return;
  Recorder& r = recorder();
  const std::string path =
      std::string(dir) + "/" + std::to_string(::getpid()) + ".json";
  std::ofstream out(path);
  out << "{\"pid\": " << ::getpid()
      << ", \"trace_origin_ns\": " << r.trace_origin_ns.load()
      << ", \"sim_blocks\": " << r.sim_blocks.load()
      << ", \"solver_iterations\": " << r.solver_iterations.load()
      << ", \"layers\": [";
  for (std::size_t i = 0; i < std::size(kLayerNames); ++i) {
    out << (i ? ", " : "") << '"' << kLayerNames[i] << '"';
  }
  out << "], \"spans\": [";
  bool first = true;
  std::lock_guard<std::mutex> guard(r.mu);
  for (std::size_t tid = 0; tid < r.logs.size(); ++tid) {
    std::lock_guard<std::mutex> log_guard(r.logs[tid]->mu);
    for (const Span& s : r.logs[tid]->spans) {
      out << (first ? "" : ", ") << '[' << s.layer << ", " << tid << ", "
          << s.start_ns << ", " << s.end_ns << ']';
      first = false;
    }
  }
  out << "], \"registry\": "
      << ethsm::support::metrics::registry().render_json() << "}\n";
}

// Constructing the registry first makes its destructor run after dump().
const bool kDumpRegistered = [] {
  (void)ethsm::support::metrics::registry();
  return std::atexit(dump) == 0;
}();

}  // namespace

using ethsm::support::SweepCheckpoint;
using ethsm::support::SweepOutcome;

// ------------------------------------------------------------- markov ---

#ifdef PB_SYM_build
void real_build(void* self, const ethsm::markov::StateSpace& space,
                const ethsm::markov::MiningParams& params)
    __asm__("__real_" PB_SYM_build);
void wrap_build(void* self, const ethsm::markov::StateSpace& space,
                const ethsm::markov::MiningParams& params)
    __asm__("__wrap_" PB_SYM_build);
void wrap_build(void* self, const ethsm::markov::StateSpace& space,
                const ethsm::markov::MiningParams& params) {
  Timed t(kBuild);
  real_build(self, space, params);
}
#endif

#ifdef PB_SYM_solve
using SolveResult = decltype(ethsm::markov::solve_stationary(
    std::declval<const ethsm::markov::TransitionModel&>(),
    std::declval<const ethsm::markov::StationaryOptions&>()));
SolveResult real_solve(const ethsm::markov::TransitionModel& model,
                       const ethsm::markov::StationaryOptions& options)
    __asm__("__real_" PB_SYM_solve);
SolveResult wrap_solve(const ethsm::markov::TransitionModel& model,
                       const ethsm::markov::StationaryOptions& options)
    __asm__("__wrap_" PB_SYM_solve);
SolveResult wrap_solve(const ethsm::markov::TransitionModel& model,
                       const ethsm::markov::StationaryOptions& options) {
  Timed t(kSolve);
  SolveResult pi = real_solve(model, options);
  recorder().solver_iterations += static_cast<std::uint64_t>(pi.iterations());
  return pi;
}
#endif

// ----------------------------------------------------------- analysis ---

#ifdef PB_SYM_revenue
using RevenueResult = decltype(ethsm::analysis::compute_revenue(
    std::declval<const ethsm::markov::MiningParams&>(),
    std::declval<const ethsm::rewards::RewardConfig&>(), 0, nullptr));
RevenueResult real_revenue(const ethsm::markov::MiningParams& params,
                           const ethsm::rewards::RewardConfig& config,
                           int max_lead, ethsm::analysis::RevenueCache* cache)
    __asm__("__real_" PB_SYM_revenue);
RevenueResult wrap_revenue(const ethsm::markov::MiningParams& params,
                           const ethsm::rewards::RewardConfig& config,
                           int max_lead, ethsm::analysis::RevenueCache* cache)
    __asm__("__wrap_" PB_SYM_revenue);
RevenueResult wrap_revenue(const ethsm::markov::MiningParams& params,
                           const ethsm::rewards::RewardConfig& config,
                           int max_lead, ethsm::analysis::RevenueCache* cache) {
  Timed t(kRevenue);
  return real_revenue(params, config, max_lead, cache);
}
#endif

#ifdef PB_SYM_kernel
using KernelResult = decltype(ethsm::analysis::compute_revenue(
    std::declval<const ethsm::markov::StationaryDistribution&>(),
    std::declval<const ethsm::markov::TransitionModel&>(),
    std::declval<const ethsm::rewards::RewardConfig&>()));
KernelResult real_kernel(const ethsm::markov::StationaryDistribution& pi,
                         const ethsm::markov::TransitionModel& model,
                         const ethsm::rewards::RewardConfig& config)
    __asm__("__real_" PB_SYM_kernel);
KernelResult wrap_kernel(const ethsm::markov::StationaryDistribution& pi,
                         const ethsm::markov::TransitionModel& model,
                         const ethsm::rewards::RewardConfig& config)
    __asm__("__wrap_" PB_SYM_kernel);
KernelResult wrap_kernel(const ethsm::markov::StationaryDistribution& pi,
                         const ethsm::markov::TransitionModel& model,
                         const ethsm::rewards::RewardConfig& config) {
  Timed t(kKernel);
  return real_kernel(pi, model, config);
}
#endif

#ifdef PB_SYM_threshold
using ThresholdResult = decltype(ethsm::analysis::profitability_threshold(
    0.0, std::declval<const ethsm::rewards::RewardConfig&>(), ethsm::sim::Scenario{},
    std::declval<const ethsm::analysis::ThresholdOptions&>()));
ThresholdResult real_threshold(double gamma,
                               const ethsm::rewards::RewardConfig& config,
                               ethsm::sim::Scenario scenario,
                               const ethsm::analysis::ThresholdOptions& options)
    __asm__("__real_" PB_SYM_threshold);
ThresholdResult wrap_threshold(double gamma,
                               const ethsm::rewards::RewardConfig& config,
                               ethsm::sim::Scenario scenario,
                               const ethsm::analysis::ThresholdOptions& options)
    __asm__("__wrap_" PB_SYM_threshold);
ThresholdResult wrap_threshold(double gamma,
                               const ethsm::rewards::RewardConfig& config,
                               ethsm::sim::Scenario scenario,
                               const ethsm::analysis::ThresholdOptions& options) {
  Timed t(kThreshold);
  return real_threshold(gamma, config, scenario, options);
}
#endif

// ---------------------------------------------------------------- sim ---

using SimSummary = decltype(
    ethsm::sim::run_many(std::declval<const ethsm::sim::SimConfig&>(), 0));
using DelaySummary = decltype(
    ethsm::sim::run_delay_many(std::declval<const ethsm::sim::DelaySimConfig&>(), 0));

#ifdef PB_SYM_run_many2
SimSummary real_run_many2(const ethsm::sim::SimConfig& config, int runs)
    __asm__("__real_" PB_SYM_run_many2);
SimSummary wrap_run_many2(const ethsm::sim::SimConfig& config, int runs)
    __asm__("__wrap_" PB_SYM_run_many2);
SimSummary wrap_run_many2(const ethsm::sim::SimConfig& config, int runs) {
  Timed t(kSim);
  count_blocks(config.num_blocks, static_cast<std::size_t>(runs));
  return real_run_many2(config, runs);
}
#endif

#ifdef PB_SYM_run_many4
SimSummary real_run_many4(const ethsm::sim::SimConfig& config, int runs,
                          const SweepCheckpoint& checkpoint,
                          SweepOutcome* outcome)
    __asm__("__real_" PB_SYM_run_many4);
SimSummary wrap_run_many4(const ethsm::sim::SimConfig& config, int runs,
                          const SweepCheckpoint& checkpoint,
                          SweepOutcome* outcome)
    __asm__("__wrap_" PB_SYM_run_many4);
SimSummary wrap_run_many4(const ethsm::sim::SimConfig& config, int runs,
                          const SweepCheckpoint& checkpoint,
                          SweepOutcome* outcome) {
  Timed t(kSim);
  return sweep_counted(config.num_blocks, runs, outcome, [&] {
    return real_run_many4(config, runs, checkpoint, outcome);
  });
}
#endif

#ifdef PB_SYM_stubborn3
SimSummary real_stubborn3(const ethsm::sim::SimConfig& config,
                          const ethsm::miner::StubbornConfig& strategy,
                          int runs) __asm__("__real_" PB_SYM_stubborn3);
SimSummary wrap_stubborn3(const ethsm::sim::SimConfig& config,
                          const ethsm::miner::StubbornConfig& strategy,
                          int runs) __asm__("__wrap_" PB_SYM_stubborn3);
SimSummary wrap_stubborn3(const ethsm::sim::SimConfig& config,
                          const ethsm::miner::StubbornConfig& strategy,
                          int runs) {
  Timed t(kSim);
  count_blocks(config.num_blocks, static_cast<std::size_t>(runs));
  return real_stubborn3(config, strategy, runs);
}
#endif

#ifdef PB_SYM_stubborn5
SimSummary real_stubborn5(const ethsm::sim::SimConfig& config,
                          const ethsm::miner::StubbornConfig& strategy,
                          int runs, const SweepCheckpoint& checkpoint,
                          SweepOutcome* outcome)
    __asm__("__real_" PB_SYM_stubborn5);
SimSummary wrap_stubborn5(const ethsm::sim::SimConfig& config,
                          const ethsm::miner::StubbornConfig& strategy,
                          int runs, const SweepCheckpoint& checkpoint,
                          SweepOutcome* outcome)
    __asm__("__wrap_" PB_SYM_stubborn5);
SimSummary wrap_stubborn5(const ethsm::sim::SimConfig& config,
                          const ethsm::miner::StubbornConfig& strategy,
                          int runs, const SweepCheckpoint& checkpoint,
                          SweepOutcome* outcome) {
  Timed t(kSim);
  return sweep_counted(config.num_blocks, runs, outcome, [&] {
    return real_stubborn5(config, strategy, runs, checkpoint, outcome);
  });
}
#endif

#ifdef PB_SYM_delay2
DelaySummary real_delay2(const ethsm::sim::DelaySimConfig& config, int runs)
    __asm__("__real_" PB_SYM_delay2);
DelaySummary wrap_delay2(const ethsm::sim::DelaySimConfig& config, int runs)
    __asm__("__wrap_" PB_SYM_delay2);
DelaySummary wrap_delay2(const ethsm::sim::DelaySimConfig& config, int runs) {
  Timed t(kSim);
  count_blocks(config.num_blocks, static_cast<std::size_t>(runs));
  return real_delay2(config, runs);
}
#endif

#ifdef PB_SYM_delay4
DelaySummary real_delay4(const ethsm::sim::DelaySimConfig& config, int runs,
                         const SweepCheckpoint& checkpoint,
                         SweepOutcome* outcome)
    __asm__("__real_" PB_SYM_delay4);
DelaySummary wrap_delay4(const ethsm::sim::DelaySimConfig& config, int runs,
                         const SweepCheckpoint& checkpoint,
                         SweepOutcome* outcome)
    __asm__("__wrap_" PB_SYM_delay4);
DelaySummary wrap_delay4(const ethsm::sim::DelaySimConfig& config, int runs,
                         const SweepCheckpoint& checkpoint,
                         SweepOutcome* outcome) {
  Timed t(kSim);
  return sweep_counted(config.num_blocks, runs, outcome, [&] {
    return real_delay4(config, runs, checkpoint, outcome);
  });
}
#endif

// ---------------------------------------------------------------- net ---

using NetSummary = decltype(
    ethsm::net::run_net_many(std::declval<const ethsm::net::NetSimConfig&>(), 0));

#ifdef PB_SYM_net2
NetSummary real_net2(const ethsm::net::NetSimConfig& config, int runs)
    __asm__("__real_" PB_SYM_net2);
NetSummary wrap_net2(const ethsm::net::NetSimConfig& config, int runs)
    __asm__("__wrap_" PB_SYM_net2);
NetSummary wrap_net2(const ethsm::net::NetSimConfig& config, int runs) {
  Timed t(kNet);
  return real_net2(config, runs);
}
#endif

#ifdef PB_SYM_net4
NetSummary real_net4(const ethsm::net::NetSimConfig& config, int runs,
                     const SweepCheckpoint& checkpoint, SweepOutcome* outcome)
    __asm__("__real_" PB_SYM_net4);
NetSummary wrap_net4(const ethsm::net::NetSimConfig& config, int runs,
                     const SweepCheckpoint& checkpoint, SweepOutcome* outcome)
    __asm__("__wrap_" PB_SYM_net4);
NetSummary wrap_net4(const ethsm::net::NetSimConfig& config, int runs,
                     const SweepCheckpoint& checkpoint, SweepOutcome* outcome) {
  Timed t(kNet);
  return real_net4(config, runs, checkpoint, outcome);
}
#endif

// --------------------------------------------------------- checkpoint ---

#ifdef PB_SYM_store_open
void real_store_open(void* self, std::string directory,
                     std::uint64_t fingerprint, ethsm::support::ShardSpec shard)
    __asm__("__real_" PB_SYM_store_open);
void wrap_store_open(void* self, std::string directory,
                     std::uint64_t fingerprint, ethsm::support::ShardSpec shard)
    __asm__("__wrap_" PB_SYM_store_open);
void wrap_store_open(void* self, std::string directory,
                     std::uint64_t fingerprint,
                     ethsm::support::ShardSpec shard) {
  Timed t(kStoreOpen);
  real_store_open(self, std::move(directory), fingerprint, shard);
}
#endif

#ifdef PB_SYM_store_append
void real_store_append(void* self, std::uint64_t job,
                       const std::vector<std::byte>& payload)
    __asm__("__real_" PB_SYM_store_append);
void wrap_store_append(void* self, std::uint64_t job,
                       const std::vector<std::byte>& payload)
    __asm__("__wrap_" PB_SYM_store_append);
void wrap_store_append(void* self, std::uint64_t job,
                       const std::vector<std::byte>& payload) {
  Timed t(kStoreAppend);
  real_store_append(self, job, payload);
}
#endif

// ---------------------------------------------------------------- api ---

#ifdef PB_SYM_render_text
void real_render_text(const ethsm::api::ExperimentResult& result,
                      std::ostream& os) __asm__("__real_" PB_SYM_render_text);
void wrap_render_text(const ethsm::api::ExperimentResult& result,
                      std::ostream& os) __asm__("__wrap_" PB_SYM_render_text);
void wrap_render_text(const ethsm::api::ExperimentResult& result,
                      std::ostream& os) {
  Timed t(kRender);
  real_render_text(result, os);
}
#endif

#ifdef PB_SYM_render_csv
std::string real_render_csv(const ethsm::api::ExperimentResult& result)
    __asm__("__real_" PB_SYM_render_csv);
std::string wrap_render_csv(const ethsm::api::ExperimentResult& result)
    __asm__("__wrap_" PB_SYM_render_csv);
std::string wrap_render_csv(const ethsm::api::ExperimentResult& result) {
  Timed t(kRender);
  return real_render_csv(result);
}
#endif

#ifdef PB_SYM_render_json
std::string real_render_json(const ethsm::api::ExperimentResult& result)
    __asm__("__real_" PB_SYM_render_json);
std::string wrap_render_json(const ethsm::api::ExperimentResult& result)
    __asm__("__wrap_" PB_SYM_render_json);
std::string wrap_render_json(const ethsm::api::ExperimentResult& result) {
  Timed t(kRender);
  return real_render_json(result);
}
#endif

#ifdef PB_SYM_run_study
using StudyResult = decltype(ethsm::api::run_study(
    std::string(), std::string(),
    std::declval<const std::vector<ethsm::api::StudyEntry>&>()));
StudyResult real_run_study(std::string name, std::string title,
                           const std::vector<ethsm::api::StudyEntry>& entries,
                           const ethsm::api::RunOptions& options,
                           const ethsm::api::StudyProgress& progress,
                           ethsm::support::ShardSpec cell_shard,
                           const ethsm::api::StudyFailurePolicy& failure)
    __asm__("__real_" PB_SYM_run_study);
StudyResult wrap_run_study(std::string name, std::string title,
                           const std::vector<ethsm::api::StudyEntry>& entries,
                           const ethsm::api::RunOptions& options,
                           const ethsm::api::StudyProgress& progress,
                           ethsm::support::ShardSpec cell_shard,
                           const ethsm::api::StudyFailurePolicy& failure)
    __asm__("__wrap_" PB_SYM_run_study);
StudyResult wrap_run_study(std::string name, std::string title,
                           const std::vector<ethsm::api::StudyEntry>& entries,
                           const ethsm::api::RunOptions& options,
                           const ethsm::api::StudyProgress& progress,
                           ethsm::support::ShardSpec cell_shard,
                           const ethsm::api::StudyFailurePolicy& failure) {
  Timed t(kStudy);
  return real_run_study(std::move(name), std::move(title), entries, options,
                        progress, cell_shard, failure);
}
#endif

// The program's own --trace timestamps count from a clock reading taken as
// the last step of trace::start(); recording the clock right after it
// returns places those spans on the same monotonic axis as the layer spans.
#ifdef PB_SYM_trace_start
void real_trace_start(const std::string& path)
    __asm__("__real_" PB_SYM_trace_start);
void wrap_trace_start(const std::string& path)
    __asm__("__wrap_" PB_SYM_trace_start);
void wrap_trace_start(const std::string& path) {
  real_trace_start(path);
  recorder().trace_origin_ns = now_ns();
}
#endif
