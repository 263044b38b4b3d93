#include "exp/scheduler.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/registry.hpp"
#include "exp/build_cache.hpp"
#include "exp/dispatch.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn::exp {

namespace {

/// The env overrides configuring a spawned --serve worker like this process
/// (the budget's %.17g MiB text round-trips its byte count exactly).
std::vector<std::string> spawn_env(const WorkerConfig& worker, std::size_t threads) {
  char budget_mb[64];
  std::snprintf(budget_mb, sizeof(budget_mb), "%.17g",
                static_cast<double>(worker.build_cache_bytes) / (1024.0 * 1024.0));
  return {"FEDHISYN_THREADS=" + std::to_string(threads),
          std::string("FEDHISYN_BUILD_CACHE_MB=") + budget_mb,
          std::string("FEDHISYN_QUIET=") + (worker.quiet ? "1" : "0"),
          "FEDHISYN_GEMM_KERNEL=" + gemm_runtime_info().variant};
}

}  // namespace

std::shared_ptr<const core::BuiltExperiment> build_for(const ExperimentSpec& spec) {
  return core::build_experiment(spec.build);
}

CellResult run_cell(const ExperimentSpec& spec, const core::BuiltExperiment& built,
                    const CellHooks& hooks) {
  // trace::clock_seconds is the repo's timing-metadata clock seam;
  // cell.seconds only ever reaches progress display and the wire, not sinks.
  const double start = trace::clock_seconds();
  trace::TraceSpan span("run_cell", "scheduler");
  auto algorithm = core::make_algorithm(spec.method, built.context(spec.opts));
  core::ExperimentRunner runner(spec.build.scale.rounds, spec.resolved_target());
  runner.set_eval_every(spec.eval_every);
  if (hooks.on_round) runner.set_on_round(hooks.on_round);

  CellResult cell;
  cell.spec = spec;
  cell.result = runner.run(*algorithm);
  if (hooks.final_weights != nullptr) {
    const auto weights = algorithm->global_weights();
    hooks.final_weights->assign(weights.begin(), weights.end());
  }
  cell.seconds = trace::clock_seconds() - start;
  return cell;
}

CellResult run_cell(const ExperimentSpec& spec, const CellHooks& hooks) {
  const auto built = build_for(spec);
  return run_cell(spec, *built, hooks);
}

GridScheduler::GridScheduler(Options options) : options_(std::move(options)) {
  FEDHISYN_CHECK_MSG(options_.backend != CellBackend::kThread || options_.jobs <= 1,
                     "the thread backend runs one cell at a time; jobs = "
                         << options_.jobs
                         << " needs CellBackend::kProcess (--dispatch process)");
}

std::size_t GridScheduler::resolved_jobs(std::size_t cells) const {
  return std::max<std::size_t>(1, std::min(options_.jobs, cells));
}

std::size_t GridScheduler::inner_threads(std::size_t jobs) const {
  const std::size_t total = options_.total_threads > 0
                                ? options_.total_threads
                                : ParallelExecutor::global().thread_count();
  return total / jobs > 0 ? total / jobs : 1;
}

std::vector<CellResult> GridScheduler::run(
    const std::vector<ExperimentSpec>& specs) const {
  std::vector<CellResult> results(specs.size());
  if (specs.empty()) return results;

  if (options_.backend != CellBackend::kThread) {
    // Process: `jobs` spawned --serve worker processes (crash-isolated,
    // retried), each on an equal slice of the thread budget.  Tcp: one slot
    // per remote --serve worker, whose thread budget is its own
    // FEDHISYN_THREADS.  Collection stays in spec order either way, so every
    // backend emits byte-identical results.
    TcpDispatcher::Options dispatch;
    if (options_.backend == CellBackend::kProcess) {
      const std::size_t jobs = resolved_jobs(specs.size());
      dispatch.spawn = jobs;
      dispatch.spawn_env = spawn_env(options_.worker, inner_threads(jobs));
    } else {
      dispatch.hosts = options_.worker_hosts;
    }
    dispatch.max_attempts = options_.max_attempts;
    dispatch.cell_timeout_s = options_.cell_timeout_s;
    dispatch.on_cell = options_.on_cell;
    return TcpDispatcher(std::move(dispatch)).run(specs);
  }

  // Thread backend: one cell at a time, in spec order, on the caller's
  // executor (normally the full global pool) — the reference ordering every
  // other backend reproduces byte-for-byte.
  BuildCache cache(BuildCache::Config{options_.worker.build_cache_bytes, {}});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::shared_ptr<const core::BuiltExperiment> built = cache.get(specs[i]);
    results[i] = run_cell(specs[i], *built);
    if (options_.on_cell) options_.on_cell(i + 1, specs.size(), results[i]);
  }
  return results;
}

}  // namespace fedhisyn::exp
