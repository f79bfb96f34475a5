// run(spec): the single entry point executing any ExperimentSpec. Every
// ExperimentKind is one plan (runner.cpp): the checkpointed sweeps it issues,
// each with a store fingerprint and job count known before anything runs and
// a job function persisted through its CheckpointCodec, plus an assembler
// that builds tables and notes from the index-ordered results. Every solve
// and simulation is such a job, so a resume or an orchestrate merge pass
// recomputes nothing already on disk. The serve sweep locks and progress
// reads and the `checkpoint-stats --prune` keep-set read the same plan
// through planned_sweeps(). For every paper preset the series are
// bitwise-identical to calling the library drivers directly (asserted by
// tests/api/preset_equivalence_test).

#ifndef ETHSM_API_RUNNER_H
#define ETHSM_API_RUNNER_H

#include <vector>

#include "api/result.h"
#include "api/spec.h"
#include "support/checkpoint.h"

namespace ethsm::api {

struct RunOptions {
  /// Resume/shard persistence threaded into every sweep of the spec's plan;
  /// a --max-new-jobs budget is consumed across those sweeps in order.
  support::SweepCheckpoint checkpoint;
};

/// Executes the spec. On an incomplete (sharded / job-budgeted) sweep the
/// result carries only the outcome accounting; tables/notes are populated
/// only when every job is merged (render_text enforces the suppression).
[[nodiscard]] ExperimentResult run(const ExperimentSpec& spec,
                                   const RunOptions& options = {});

/// The sweeps run(spec) issues, in order, listed from its plan without
/// running anything: each store fingerprint with its job count.
[[nodiscard]] std::vector<support::SweepKey> planned_sweeps(
    const ExperimentSpec& spec);

/// The fingerprints of planned_sweeps(spec): exactly the stores a fresh
/// run(spec) writes.
[[nodiscard]] std::vector<std::uint64_t> sweep_fingerprints(
    const ExperimentSpec& spec);

}  // namespace ethsm::api

#endif  // ETHSM_API_RUNNER_H
