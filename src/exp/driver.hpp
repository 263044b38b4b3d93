// Shared command-line handling for the grid drivers (Table 1 / figure
// benches, examples, CLI).  Every driver built on the exp API accepts:
//
//   --threads N       worker-thread budget (FEDHISYN_THREADS env fallback)
//   --grid-jobs N     concurrent grid cells (FEDHISYN_GRID_JOBS fallback; 1)
//   --dispatch MODE   thread | process | tcp: run cells on in-process worker
//                     threads (default), on a crash-isolated pool of worker
//                     processes, or on remote --serve workers over TCP
//                     (FEDHISYN_DISPATCH fallback); output is byte-identical
//                     in all three modes
//   --workers H:P,... remote worker endpoints for --dispatch tcp
//                     (FEDHISYN_WORKERS fallback)
//   --out PATH        per-cell results, JSONL by default, CSV if *.csv
//   --resume          scan an existing --out JSONL for finished cells (by
//                     spec key) and run only the rest; resumed lines are
//                     re-emitted verbatim, so the final file is
//                     byte-identical to an uninterrupted sweep
//   --quiet           suppress the per-cell progress lines on stderr, and
//                     (via FEDHISYN_QUIET, which spawned workers inherit)
//                     the dispatch workers' cache and connection log lines
//   --trace FILE      write a Chrome-trace/Perfetto JSON timeline of the
//                     sweep to FILE (FEDHISYN_TRACE fallback): executor
//                     batches, round waves, GEMM calls, build-cache builds
//                     and per-cell dispatch lifecycles, with dispatch
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
//                     disables caching, unset = a default holding the full
//                     Table-1 sweep (FEDHISYN_BUILD_CACHE_MB, which child
//                     workers inherit; a remote --serve worker reads its
//                     *own* flag/env).  Never changes result bytes.
//   --gemm-kernel K   GEMM micro-kernel variant: auto (CPUID dispatch, the
//                     default) | generic | avx2 | avx512 | neon, optionally
//                     variant:MRxNR (FEDHISYN_GEMM_KERNEL, which child
//                     workers inherit).  Bit-identical results either way;
//                     an unsupported forced variant fails at startup
//   --list-methods    print the registered algorithms (one description line
//                     each) and exit
//   --gemm-info       print the resolved GEMM dispatch state (selected
//                     variant, forced kernel, the one tile and tile-grid
//                     sizes every call runs) and exit
//   --serve [BIND:]PORT
//                     become a resident dispatch worker: listen on PORT
//                     (default bind 0.0.0.0; port 0 = ephemeral, announced
//                     on stdout) and serve --dispatch tcp coordinators until
//                     killed; --dispatch process spawns this binary with
//                     --serve 127.0.0.1:0 for each worker
//
// --grid-jobs, --dispatch and --workers plus the env-only
// FEDHISYN_WORKER_RETRIES and FEDHISYN_CELL_TIMEOUT_S are the coordinator
// knobs: handle_grid_flags resolves them once (flag > env > default) into
// GridDriverOptions::scheduler and check-fails on a malformed value before
// anything touches --out.  No other code reads them.
//
// Grid-restriction flags replace the old FEDHISYN_TABLE1_* getenv knobs;
// the env vars remain as fallbacks for CI compatibility:
//
//   --dataset a,b     restrict the dataset axis   (FEDHISYN_TABLE1_DATASET)
//   --part 100,50     restrict participation %    (FEDHISYN_TABLE1_PART)
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
  /// How cells execute — grid jobs, backend, worker endpoints, retry and
  /// deadline budget — as handle_grid_flags resolved them.  run_grid sets
  /// `on_cell` itself.
  GridScheduler::Options scheduler;
  /// Empty = no results file.
  std::string out;
  /// Skip cells whose spec key already sits in the --out JSONL.
  bool resume = false;
  /// Suppress the per-cell progress lines on stderr.
  bool quiet = false;
  /// Chrome-trace JSON output path (--trace / FEDHISYN_TRACE); empty = off.
  /// Non-empty enables trace recording for the whole run.
  std::string trace_out;
  /// Counter-registry JSON output path (--metrics-out); empty = off.
  std::string metrics_out;
};

/// Apply the flags shared by every grid driver: export --quiet /
/// --build-cache-mb / --gemm-kernel to their env vars (before the --serve
/// branch, so workers see them; --gemm-kernel is validated immediately),
/// enter the --serve worker mode when requested, handle --list-methods /
/// --gemm-info (print and exit), resize the global pool for --threads,
/// resolve the coordinator knobs (check-failing on a malformed one) and
/// --resume / --quiet, and capture --out.
GridDriverOptions handle_grid_flags(const Flags& flags);

/// Run a grid the standard way: honour --resume (scan `options.out` for
/// finished cells and run only the rest), stream each finished cell's JSONL
/// line to `options.out` as it completes (append-safe, so an interrupted
/// sweep is resumable), print per-cell progress with an ETA to stderr
/// (unless --quiet), and finally rewrite `options.out` atomically in spec
/// order — byte-identical across serial, --grid-jobs N, --dispatch=process
/// and --dispatch=tcp runs, interrupted or not.
///
/// Returns one CellResult per spec, in spec order.  Resumed cells carry the
/// headline metrics parsed back from the file but an empty per-round
/// history (the JSONL sink does not serialise trajectories).
std::vector<CellResult> run_grid(const std::vector<ExperimentSpec>& specs,
                                 const GridDriverOptions& options);

/// Comma-separated list flag with an env-var fallback: the flag value when
/// present, else the env var `env_fallback` (when non-null and set), else
/// `defaults`.
std::vector<std::string> list_flag(const Flags& flags, const std::string& key,
                                   const char* env_fallback,
                                   std::vector<std::string> defaults);

/// --dataset restriction with the FEDHISYN_TABLE1_DATASET fallback.
std::vector<std::string> datasets_from_flags(const Flags& flags,
                                             std::vector<std::string> defaults);

/// --part restriction (percent values: "100,50,10") with the
/// FEDHISYN_TABLE1_PART fallback.  Returns fractions in [0, 1].
std::vector<double> participations_from_flags(const Flags& flags,
                                              std::vector<double> defaults);

/// --partition restriction: tokens "iid" or "dir<beta>" ("dir0.3").
std::vector<data::PartitionConfig> partitions_from_flags(
    const Flags& flags, std::vector<data::PartitionConfig> defaults);

}  // namespace fedhisyn::exp
