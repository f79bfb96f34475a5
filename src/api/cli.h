// The `ethsm` command-line interface. Every paper table and figure is a
// preset: `ethsm run <preset> [--quick] [--format csv --out FILE]`
// regenerates it, and `ethsm run --all` writes the whole artefact tree.
//
//   ethsm list [--format table|json]
//   ethsm print <preset> [--quick] [--set key=value ...]
//   ethsm run <preset> | --spec FILE
//             [--quick] [--set key=value ...]
//             [--format table|csv|json] [--out FILE]
//             [--checkpoint-dir DIR | --resume] [--shard k/N]
//             [--max-new-jobs N] [--trace FILE] [--metrics-out FILE]
//   ethsm run --all | --study FILE        (study runs: results tree + manifest;
//             [--quick] [--set ...]        --all regenerates every preset
//             [--out DIR] [--cell-shard k/N] [--retry N]
//             [checkpoint/shard/budget/trace flags as above]
//   ethsm expand <study file> | --all [--quick] [--set key=value ...]
//   ethsm checkpoint-stats <dir> [--prune [--dry-run]] [--keep-study FILE ...]
//                                [--set key=value ...]
//                                         (--keep-study adds a custom study's
//                                          expansion to the GC keep-set; pass
//                                          the run's --set overrides too, as
//                                          they change sweep fingerprints)
//   ethsm serve [--port N] ...            (results daemon, docs/CLI.md)
//   ethsm orchestrate <preset> | --spec FILE | --study FILE | --all
//             [--workers N | --hosts a,b,c] ...
//                                         (shards a run over worker
//                                          processes, then merges in-process)
//
// Environment fallbacks: ETHSM_CHECKPOINT_DIR, ETHSM_SHARD (flags win).
// Exit codes: 0 success, 1 runtime failure, 2 usage.

#ifndef ETHSM_API_CLI_H
#define ETHSM_API_CLI_H

namespace ethsm::api {

/// Entry point of the `ethsm` binary.
[[nodiscard]] int cli_main(int argc, char** argv);

}  // namespace ethsm::api

#endif  // ETHSM_API_CLI_H
