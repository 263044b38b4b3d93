// GridScheduler: runs a vector of ExperimentSpecs (grid cells).
//
// The thread backend (the default) runs one cell at a time, in spec order,
// on the caller's executor (ParallelExecutor::current(), normally the full
// global pool sized by FEDHISYN_THREADS / --threads), so a cell's training
// jobs fan out on every thread.  Concurrent cells are the process backend's:
// `jobs` spawned --serve workers, each on floor(total_threads / jobs)
// threads (the grid drivers resolve --grid-jobs in exp::handle_grid_flags and
// accept it above 1 only with --dispatch process).
//
// Determinism: a cell's computation depends only on its spec (per-cell
// seeding comes from spec.build.seed / spec.opts.seed, and every kernel is
// bit-identical across thread counts), and results are collected by spec
// index — so a process or tcp sweep produces byte-identical output to the
// serial one.
//
// Builds are deduped through the shared exp::BuildCache (build_cache.hpp):
// cells with equal spec.build_key() share one BuiltExperiment (e.g. Table 1
// runs 7 methods per build), LRU-evicted under the WorkerConfig byte budget
// — the same class the dispatch workers use, so every backend has identical
// caching semantics and counts its outcomes in the same build_cache.*
// registry counters (a dispatched cell's deltas come home in its telemetry).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "exp/build_cache.hpp"
#include "exp/spec.hpp"

namespace fedhisyn::exp {

/// One trace span a dispatch worker recorded while running a cell
/// (common/trace.hpp collection mode), shipped back on the wire protocol's
/// `telemetry` block.  Timestamps are microseconds relative to the cell's
/// start on the worker; the coordinator rebases them onto its own timeline
/// and files them under the worker's Perfetto lane (pid 1 + slot).
struct CellTelemetrySpan {
  std::string name;
  std::string cat;
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
};

/// Worker-side observability for one dispatched cell: the spans recorded
/// while it ran (empty unless the coordinator requested tracing) plus the
/// cell's counter-registry deltas (always reported — counting is free), the
/// build_cache.* outcomes included.  Empty for thread-backend cells, which
/// record into the coordinator's own buffers and registry.  Like `seconds`,
/// the JSONL/CSV sinks exclude it, so output files stay byte-identical
/// traced vs untraced and across backends.
struct CellTelemetry {
  std::vector<CellTelemetrySpan> spans;
  /// Spans lost to the worker's buffer cap or the wire cap.
  std::uint64_t dropped = 0;
  /// Per-cell counter deltas, sorted by name (see common/counters.hpp).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Everything one finished cell produced.  Wall-clock seconds and the
/// telemetry block are reported for humans only — result sinks exclude them
/// so output files stay byte-stable across thread counts, machines, cache
/// states and tracing on/off.
struct CellResult {
  ExperimentSpec spec;
  core::ExperimentResult result;
  double seconds = 0.0;
  CellTelemetry telemetry;
};

/// Optional extras for single-cell drivers (the CLI, quickstart).
struct CellHooks {
  /// Forwarded to ExperimentRunner::set_on_round.
  std::function<void(const core::RoundRecord&)> on_round;
  /// When non-null, receives the algorithm's final global weights.
  std::vector<float>* final_weights = nullptr;
};

/// Build the experiment a spec describes (data, partition, model, fleet).
std::shared_ptr<const core::BuiltExperiment> build_for(const ExperimentSpec& spec);

/// Run one cell against an already-built experiment.
CellResult run_cell(const ExperimentSpec& spec, const core::BuiltExperiment& built,
                    const CellHooks& hooks = {});

/// Convenience: build then run.
CellResult run_cell(const ExperimentSpec& spec, const CellHooks& hooks = {});

/// The knobs the coordinator and each --serve worker apply to themselves
/// (exp::resolve_worker_config).
struct WorkerConfig {
  /// Silence the workers' per-build cache and connection log lines.
  bool quiet = false;
  /// BuildCache byte budget; 0 keeps no build resident.
  std::size_t build_cache_bytes = BuildCache::default_budget_bytes();
};

/// How GridScheduler executes cells:
///   kThread   one at a time in this process, on the caller's executor (the
///             default);
///   kProcess  `jobs` crash-isolated `--serve` worker processes this binary
///             spawns on loopback (exp/dispatch.hpp) — a crashing worker
///             (segfault, OOM kill) cannot take the sweep down, and results
///             stay byte-identical; a worker that *hangs* is killed and
///             retried too once `cell_timeout_s` arms the per-cell deadline;
///   kTcp      the workers in `worker_hosts`, already started with
///             `--serve [bind:]port` on this or other machines; same
///             dispatcher and retry/timeout semantics as kProcess.
enum class CellBackend { kThread, kProcess, kTcp };

class GridScheduler {
 public:
  /// Every field is explicit: nothing here reads the environment (the grid
  /// drivers resolve flags and env vars in exp::handle_grid_flags).
  struct Options {
    /// Process backend: spawned --serve workers (>= 1), clamped to the
    /// number of cells.  The thread backend check-fails above 1; tcp reads
    /// its worker count from `worker_hosts`.
    std::size_t jobs = 1;
    /// Process backend: thread budget split across the spawned workers (each
    /// gets FEDHISYN_THREADS = inner_threads); 0 = the global pool's current
    /// size.
    std::size_t total_threads = 0;
    /// Cell execution backend.
    CellBackend backend = CellBackend::kThread;
    /// Process/tcp backends: tries per cell before the sweep fails.
    int max_attempts = 3;
    /// Tcp backend: worker endpoints ("host:port").
    std::vector<std::string> worker_hosts;
    /// Process/tcp backends: per-cell deadline in seconds; 0 disables.
    double cell_timeout_s = 0.0;
    /// Thread/process backends: this process's / the spawned workers' knobs.
    WorkerConfig worker;
    /// Progress callback, invoked once per finished cell on the caller's
    /// thread, in completion order (spec order for the thread backend):
    /// (cells done, cells total, the cell).
    std::function<void(std::size_t, std::size_t, const CellResult&)> on_cell;
  };

  GridScheduler() : GridScheduler(Options{}) {}
  explicit GridScheduler(Options options);

  /// Run every spec; results[i] corresponds to specs[i] regardless of
  /// completion order.  The thread backend stops at the first cell
  /// exception and rethrows it; the dispatch backends rethrow it after their
  /// workers drain.
  std::vector<CellResult> run(const std::vector<ExperimentSpec>& specs) const;

  /// Process backend: workers spawned for a grid of `cells` cells.
  std::size_t resolved_jobs(std::size_t cells) const;
  /// Process backend: each of `jobs` workers' thread slice (its
  /// FEDHISYN_THREADS), at least 1.
  std::size_t inner_threads(std::size_t jobs) const;

 private:
  Options options_;
};

}  // namespace fedhisyn::exp
