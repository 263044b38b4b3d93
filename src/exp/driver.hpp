// Shared command-line handling for the grid drivers (Table 1 / figure
// benches, examples, CLI).  Every driver built on the exp API accepts:
//
//   --threads N       worker-thread budget (FEDHISYN_THREADS env fallback)
//   --grid-jobs N     worker processes of --dispatch process, each on
//                     floor(threads / N) threads (FEDHISYN_GRID_JOBS
//                     fallback; default 1); above 1 only with --dispatch
//                     process
//   --dispatch MODE   thread | process | tcp: run cells one at a time in
//                     this process (default), on a crash-isolated pool of
//                     worker processes, or on remote --serve workers over
//                     TCP (FEDHISYN_DISPATCH fallback); output is
//                     byte-identical in all three modes
//   --workers H:P,... remote worker endpoints for --dispatch tcp
//                     (FEDHISYN_WORKERS fallback)
//   --out PATH        per-cell results, JSONL by default, CSV if *.csv
//   --resume          scan an existing --out JSONL for finished cells (by
//                     spec key) and run only the rest; resumed lines are
//                     re-emitted verbatim, so the final file is
//                     byte-identical to an uninterrupted sweep
//   --quiet           suppress the per-cell progress lines on stderr and the
//                     dispatch workers' cache and connection log lines
//                     (FEDHISYN_QUIET fallback)
//   --trace FILE      write a Chrome-trace/Perfetto JSON timeline of the
//                     sweep to FILE (FEDHISYN_TRACE fallback): grid cells,
//                     executor batches, round-graph jobs, build-cache
//                     builds and per-cell dispatch lifecycles, with dispatch
//                     workers' spans merged onto per-worker lanes
//                     (common/trace.hpp; docs/OBSERVABILITY.md).  Pure
//                     observability — result bytes are identical with or
//                     without it
//   --metrics-out FILE
//                     dump the process counter registry (cache hit/miss,
//                     retries, latency histograms; common/counters.hpp) as
//                     JSON after the sweep
//   --build-cache-mb M
//                     byte budget in MiB (fractional ok) of the shared
//                     BuiltExperiment cache (exp/build_cache.hpp); 0
//                     keeps no build resident, unset = a default holding
//                     the full Table-1 sweep (FEDHISYN_BUILD_CACHE_MB
//                     fallback).
//                     Never changes result bytes
//   --gemm-kernel K   GEMM micro-kernel variant: auto (CPUID dispatch, the
//                     default) | generic | avx2 | avx512
//                     (FEDHISYN_GEMM_KERNEL fallback).
//                     Bit-identical results either way; an unsupported
//                     forced variant fails at startup
//   --list-methods    print the registered algorithms (one description line
//                     each) and exit
//   --gemm-info       print the resolved GEMM dispatch state (selected
//                     variant, its one tile and the blocking sizes every
//                     call runs) and exit
//   --serve [BIND:]PORT
//                     become a resident dispatch worker: listen on PORT
//                     (default bind 0.0.0.0; port 0 = ephemeral, announced
//                     on stdout) and serve --dispatch tcp coordinators until
//                     killed; --dispatch process spawns this binary with
//                     --serve 127.0.0.1:0 for each worker
//
// handle_grid_flags resolves every knob once (flag > env > default) and
// check-fails on a malformed value before anything touches --out: the
// coordinator knobs (--grid-jobs, --dispatch, --workers and the env-only
// FEDHISYN_WORKER_RETRIES / FEDHISYN_CELL_TIMEOUT_S) into
// GridDriverOptions::scheduler, the worker knobs (--quiet,
// --build-cache-mb) into scheduler.worker and --gemm-kernel into the
// process-wide GEMM selection.  Spawned workers get all three as explicit
// env overrides; tcp hosts read their own, so tcp rejects the latter two.
//
// Grid-restriction flags, for the drivers that list them as their own:
//
//   --dataset a,b     restrict the dataset axis
//   --part 100,50     restrict participation %
//   --partition x,y   restrict partitions: iid | dir<beta> (e.g. dir0.3)
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "data/partition.hpp"
#include "exp/scheduler.hpp"

namespace fedhisyn::exp {

struct GridDriverOptions {
  /// How cells execute, as handle_grid_flags resolved it (worker.quiet also
  /// silences the progress lines).  run_grid sets `on_cell` itself.
  GridScheduler::Options scheduler;
  /// Empty = no results file.
  std::string out;
  /// Skip cells whose spec key already sits in the --out JSONL.
  bool resume = false;
  /// Chrome-trace JSON output path (--trace / FEDHISYN_TRACE); empty = off.
  /// Non-empty enables trace recording for the whole run.
  std::string trace_out;
  /// Counter-registry JSON output path (--metrics-out); empty = off.
  std::string metrics_out;
};

/// --quiet / FEDHISYN_QUIET and --build-cache-mb / FEDHISYN_BUILD_CACHE_MB
/// (flag > env > default); check-fails on a budget that is not a finite
/// MiB count >= 0 whose byte count fits size_t.
WorkerConfig resolve_worker_config(const Flags& flags);

/// The `main` of every grid driver: `return exp::driver_main(argc, argv,
/// run);`.  A CheckError escaping `body` (a malformed flag or env var, an
/// unsupported --gemm-kernel, --dispatch tcp without workers) prints
/// "<program>: <message>" on stderr and exits with status 2, instead of
/// aborting through std::terminate.
int driver_main(int argc, char** argv, int (*body)(int argc, char** argv));

/// Apply the flags shared by every grid driver: reject flags outside that
/// set and `own_flags`, resolve the worker knobs and select the GEMM kernel
/// (logging it unless quiet), enter --serve mode when requested, handle
/// --list-methods / --gemm-info (print and exit), resize the global pool
/// for --threads, resolve the coordinator knobs, --resume and --out.
GridDriverOptions handle_grid_flags(const Flags& flags,
                                    const std::vector<std::string>& own_flags = {});

/// Run a grid the standard way: honour --resume (scan `options.out` for
/// finished cells and run only the rest), stream each finished cell's JSONL
/// line to `options.out` as it completes (append-safe, so an interrupted
/// sweep is resumable), print per-cell progress with an ETA to stderr
/// (unless --quiet), and finally rewrite `options.out` atomically in spec
/// order — byte-identical across serial, --dispatch=process (at any
/// --grid-jobs N) and --dispatch=tcp runs, interrupted or not.
///
/// Returns one CellResult per spec, in spec order.  Resumed cells carry the
/// headline metrics parsed back from the file but an empty per-round
/// history (the JSONL sink does not serialise trajectories).
std::vector<CellResult> run_grid(const std::vector<ExperimentSpec>& specs,
                                 const GridDriverOptions& options);

/// --dataset restriction.
std::vector<std::string> datasets_from_flags(const Flags& flags,
                                             std::vector<std::string> defaults);

/// --part restriction (percent: "100,50,10") as fractions in [0, 1].
std::vector<double> participations_from_flags(const Flags& flags,
                                              std::vector<double> defaults);

/// --partition restriction: tokens "iid" or "dir<beta>" ("dir0.3").
std::vector<data::PartitionConfig> partitions_from_flags(
    const Flags& flags, std::vector<data::PartitionConfig> defaults);

}  // namespace fedhisyn::exp
