// Environment-variable helpers shared by the bench harnesses.
//
// Knobs recognised across the library:
//   FEDHISYN_FULL=1          paper-scale experiment sizes (see presets.hpp)
//   FEDHISYN_THREADS=N       worker-pool size (see common/parallel.hpp); a
//                            process-backend coordinator splits it across
//                            its spawned workers
//   FEDHISYN_GRID_JOBS=N     spawned --serve workers of the process backend
//                            (fallback for --grid-jobs; default 1); above 1
//                            only with --dispatch process
//   FEDHISYN_DISPATCH=thread|process|tcp
//                            grid cell backend (fallback for --dispatch):
//                            one cell at a time in this process (default),
//                            a crash-isolated pool of worker processes, or
//                            remote --serve workers over TCP
//                            (exp/dispatch.hpp).  Output files are
//                            byte-identical in all three modes.
//   FEDHISYN_WORKERS=host:port,...
//                            worker endpoints for the tcp backend (fallback
//                            for --workers); each host runs this binary in
//                            --serve mode.
//   FEDHISYN_WORKER_RETRIES=N
//                            extra attempts for a grid cell whose dispatch
//                            worker crashed, hung past the cell timeout or
//                            dropped its connection (default 2, i.e. 3 tries
//                            total; a negative value keeps the default).
//   FEDHISYN_CELL_TIMEOUT_S=S
//                            per-cell deadline for the process/tcp dispatch
//                            backends (fractional seconds below 1e9; default
//                            and any non-positive value: off): a worker that
//                            exceeds it is killed (process) or disconnected
//                            (tcp) and the cell retried under the same
//                            accounting as a crash.
//                            These five are the coordinator knobs: only
//                            exp::handle_grid_flags (exp/driver.cpp) reads
//                            them, once, and it check-fails on a malformed
//                            value.
//   FEDHISYN_GEMM_KERNEL=auto|generic|avx2|avx512
//                            GEMM micro-kernel variant (tensor/gemm_tune.hpp).
//                            "auto" (the default) picks the best ISA the CPU
//                            reports; a named variant forces it (failing
//                            loudly when unsupported).  Every variant
//                            produces bit-identical results.
//   FEDHISYN_BUILD_CACHE_MB=M
//                            byte budget (MiB, fractional allowed) of the
//                            BuiltExperiment cache every execution backend
//                            shares (exp/build_cache.hpp).  0 keeps no
//                            build resident; unset = a default sized to
//                            hold the full Table-1 sweep.  Caching changes when
//                            builds happen, never result bytes.
//   FEDHISYN_QUIET=1         suppress the progress lines and the dispatch
//                            workers' cache and connection log lines.
//                            These three are the worker knobs: only
//                            exp::handle_grid_flags resolves them (plus the
//                            first gemm call of a binary that never calls it).
//   FEDHISYN_TRACE=FILE      write a Chrome-trace/Perfetto JSON timeline of
//                            the run to FILE (fallback for the grid drivers'
//                            --trace flag; see common/trace.hpp and
//                            docs/OBSERVABILITY.md).  Tracing is pure
//                            observability: result files are byte-identical
//                            traced or not.
#pragma once

#include <string>

namespace fedhisyn {

/// True when FEDHISYN_FULL=1: benches run paper-scale round counts instead of
/// the laptop-scale defaults.
bool full_scale_enabled();

/// Integer env var with default (returns `fallback` when unset/invalid).
long env_long(const std::string& name, long fallback);

}  // namespace fedhisyn
