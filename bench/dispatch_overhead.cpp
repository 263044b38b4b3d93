// Dispatch-overhead microbench: what does process-level (and socket-level)
// grid dispatch cost per cell, compared to the in-process thread backend?
//
// Runs a sweep of deliberately tiny cells (so per-cell compute is small and
// the dispatch machinery dominates) through GridScheduler three times —
// the serial thread backend (one cell at a time in this process), the
// process backend at --jobs workers (its time includes spawning its own
// loopback --serve children), and the tcp backend against two --serve
// workers started before the clock runs — and reports wall time, cells/sec
// and the derived per-cell dispatch overhead: each dispatch backend's wall
// time minus the serial in-process sweep's, per cell.  A fourth sub-bench measures the
// worker-side multi-build LRU cache (exp/build_cache.hpp): a
// build-interleaved 2-build sweep of build-heavy cells on one process
// worker, cold (cache budget 0) vs warm (default budget), where
// the affinity pass + resident cache must beat rebuild-per-cell by >= 2x.
// Emits machine-readable BENCH_dispatch.json; CI gates cells_per_sec (and
// cells_per_sec_warm for the cache entry) against
// bench/baselines/BENCH_dispatch.json via tools/bench_gate.py (the floors
// are curated far below any healthy run, so the gate catches a dispatcher
// that starts respawning workers per cell, serialising the pool or
// rebuilding datasets per request, not runner-hardware noise).
//
//   ./bench_dispatch_overhead [--out BENCH_dispatch.json] [--cells N]
//                             [--jobs N] [--repeat N]
// (--jobs: the process backend's worker count.)
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/hostinfo.hpp"
#include "common/net.hpp"
#include "common/subprocess.hpp"
#include "exp/driver.hpp"
#include "tensor/gemm_tune.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"

namespace {

double run_backend(const std::vector<fedhisyn::exp::ExperimentSpec>& specs,
                   fedhisyn::exp::GridScheduler::Options options, int repeat) {
  using namespace fedhisyn;
  double best = 1e300;
  for (int r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    exp::GridScheduler(options).run(specs);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    best = std::min(best, wall);
  }
  return best;
}

/// The sweeps use many distinct builds: spawned workers run quiet, keeping
/// their per-build cache log lines out of the bench output.
double run_backend(const std::vector<fedhisyn::exp::ExperimentSpec>& specs,
                   fedhisyn::exp::CellBackend backend, std::size_t jobs, int repeat,
                   std::size_t build_cache_bytes =
                       fedhisyn::exp::BuildCache::default_budget_bytes()) {
  fedhisyn::exp::GridScheduler::Options options;
  options.jobs = jobs;
  options.backend = backend;
  options.worker.quiet = true;
  options.worker.build_cache_bytes = build_cache_bytes;
  return run_backend(specs, std::move(options), repeat);
}

/// A --serve worker self-exec'd on an ephemeral loopback port; endpoint
/// parsed from its announce line, killed on destruction.
class ServeWorker {
 public:
  ServeWorker()
      : proc_(std::vector<std::string>{fedhisyn::current_executable_path(),
                                       "--serve", "127.0.0.1:0"},
              {"FEDHISYN_QUIET=1"}) {
    fedhisyn::net::LineReader announce(proc_.stdout_fd());
    std::string line;
    FEDHISYN_CHECK_MSG(
        announce.read_line(&line, fedhisyn::net::Deadline::after(30.0)) ==
            fedhisyn::net::LineReader::Status::kLine,
        "--serve worker printed no announce line");
    const std::string prefix = "fedhisyn-serve: listening on ";
    FEDHISYN_CHECK_MSG(line.rfind(prefix, 0) == 0,
                       "unexpected announce line: " << line);
    endpoint_ = line.substr(prefix.size());
  }
  ~ServeWorker() {
    proc_.kill(SIGKILL);
    proc_.wait();
  }

  const std::string& endpoint() const { return endpoint_; }

 private:
  fedhisyn::Subprocess proc_;
  std::string endpoint_;
};

}  // namespace

static int run(int argc, char** argv) {
  using namespace fedhisyn;
  const auto flags = Flags::parse(argc - 1, argv + 1);
  // --serve / --threads / --list-methods, plus this bench's own flags.
  exp::handle_grid_flags(flags, {"cells", "jobs", "repeat"});

  const std::size_t cells = static_cast<std::size_t>(flags.get_long("cells", 12));
  const std::size_t jobs = static_cast<std::size_t>(flags.get_long("jobs", 2));
  const int repeat = static_cast<int>(flags.get_long("repeat", 1));
  const std::string out_path = flags.get("out", "BENCH_dispatch.json");

  // Tiny cells: 4 devices, 1 round, a handful of samples — compute is a few
  // milliseconds, so spawn + wire-codec + socket costs are what get measured.
  exp::ExperimentGrid grid;
  grid.base().build.scale.devices = 4;
  grid.base().build.scale.train_samples_per_device = 10;
  grid.base().build.scale.test_samples = 40;
  grid.base().build.scale.rounds = 1;
  grid.base().build.mlp_hidden = {8};
  grid.base().opts.local_epochs = 1;
  grid.base().opts.batch_size = 10;
  grid.base().opts.clusters = 1;
  grid.base().method = "FedAvg";
  grid.base().target = 0.999f;
  std::vector<std::uint64_t> seeds(cells);
  for (std::size_t i = 0; i < cells; ++i) seeds[i] = 100 + i;
  grid.seeds(seeds);
  const auto specs = grid.expand();

  const double thread_wall = run_backend(specs, exp::CellBackend::kThread, 1, repeat);
  const double process_wall =
      run_backend(specs, exp::CellBackend::kProcess, jobs, repeat);

  // Tcp backend: two resident --serve workers on loopback — the wire and
  // framing costs of a real multi-host sweep without the network in between.
  double tcp_wall;
  {
    ServeWorker worker_a;
    ServeWorker worker_b;
    exp::GridScheduler::Options options;
    options.backend = exp::CellBackend::kTcp;
    options.worker_hosts = {worker_a.endpoint(), worker_b.endpoint()};
    tcp_wall = run_backend(specs, std::move(options), repeat);
  }

  // Warm-vs-cold build cache: a build-interleaved 2-build sweep on ONE
  // process worker, with build-heavy cells (32 devices x 64 samples to
  // generate and partition, but participation 1/8 so only 4 devices train
  // one round) — the regime the multi-build LRU cache exists for.  Cold
  // disables the worker's cache (budget 0): every cell rebuilds.  Warm uses
  // the default budget: the coordinator's affinity pass plus the resident
  // cache reduce the interleave to one build per key.
  exp::ExperimentGrid cache_grid;
  cache_grid.base().build.scale.devices = 32;
  cache_grid.base().build.scale.train_samples_per_device = 64;
  cache_grid.base().build.scale.test_samples = 64;
  cache_grid.base().build.scale.rounds = 1;
  cache_grid.base().build.mlp_hidden = {8};
  cache_grid.base().opts.local_epochs = 1;
  cache_grid.base().opts.batch_size = 32;
  cache_grid.base().opts.participation = 0.125;
  cache_grid.base().opts.clusters = 1;
  cache_grid.base().method = "FedAvg";
  cache_grid.base().target = 0.999f;
  cache_grid.base().with_seed(200);
  const auto cache_cell_a = cache_grid.expand().at(0);
  cache_grid.base().with_seed(201);
  const auto cache_cell_b = cache_grid.expand().at(0);
  constexpr std::size_t kCacheCells = 8;
  std::vector<exp::ExperimentSpec> cache_specs;
  cache_specs.reserve(kCacheCells);
  for (std::size_t i = 0; i < kCacheCells; ++i) {
    cache_specs.push_back(i % 2 == 0 ? cache_cell_a : cache_cell_b);
  }
  const double cold_wall = run_backend(cache_specs, exp::CellBackend::kProcess, 1, repeat,
                                      /*build_cache_bytes=*/0);
  const double warm_wall =
      run_backend(cache_specs, exp::CellBackend::kProcess, 1, repeat);

  const double thread_cps = static_cast<double>(cells) / thread_wall;
  const double process_cps = static_cast<double>(cells) / process_wall;
  const double tcp_cps = static_cast<double>(cells) / tcp_wall;
  const double cold_cps = static_cast<double>(kCacheCells) / cold_wall;
  const double warm_cps = static_cast<double>(kCacheCells) / warm_wall;
  const double warm_over_cold = cold_wall / warm_wall;
  const double overhead_ms =
      (process_wall - thread_wall) / static_cast<double>(cells) * 1000.0;
  const double tcp_overhead_ms =
      (tcp_wall - thread_wall) / static_cast<double>(cells) * 1000.0;

  std::printf("== dispatch overhead (%zu cells, %zu jobs, best of %d) ==\n", cells,
              jobs, repeat);
  std::printf("thread  backend: %7.3fs wall, %8.1f cells/sec (serial)\n", thread_wall,
              thread_cps);
  std::printf("process backend: %7.3fs wall, %8.1f cells/sec, %+.2f ms/cell dispatch "
              "overhead\n",
              process_wall, process_cps, overhead_ms);
  std::printf("tcp     backend: %7.3fs wall, %8.1f cells/sec, %+.2f ms/cell dispatch "
              "overhead (2 loopback --serve workers)\n",
              tcp_wall, tcp_cps, tcp_overhead_ms);
  std::printf("build cache (interleaved 2-build sweep, %zu cells, 1 worker):\n",
              kCacheCells);
  std::printf("  cold (cache off): %7.3fs wall, %8.1f cells/sec\n", cold_wall,
              cold_cps);
  std::printf("  warm (default):   %7.3fs wall, %8.1f cells/sec  (%.2fx cold)\n",
              warm_wall, warm_cps, warm_over_cold);

  char buf[256];
  std::string json = "{\n  \"schema\": \"fedhisyn-dispatch-overhead/1\",\n";
  json += "  " + host_json_field(gemm_runtime_info().variant) + ",\n";
  std::snprintf(buf, sizeof(buf), "  \"cells\": %zu,\n  \"jobs\": %zu,\n", cells, jobs);
  json += buf;
  json += "  \"entries\": [\n";
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"thread/serial\", \"backend\": \"thread\", "
                "\"wall_s\": %.4f, \"cells_per_sec\": %.2f},\n",
                thread_wall, thread_cps);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"process/j%zu\", \"backend\": \"process\", "
                "\"wall_s\": %.4f, \"cells_per_sec\": %.2f, "
                "\"overhead_ms_per_cell\": %.3f},\n",
                jobs, process_wall, process_cps, overhead_ms);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"tcp/w2\", \"backend\": \"tcp\", "
                "\"wall_s\": %.4f, \"cells_per_sec\": %.2f, "
                "\"overhead_ms_per_cell\": %.3f},\n",
                tcp_wall, tcp_cps, tcp_overhead_ms);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"cache/2build\", \"backend\": \"process\", "
                "\"wall_s_cold\": %.4f, \"wall_s_warm\": %.4f, "
                "\"cells_per_sec_cold\": %.2f, \"cells_per_sec_warm\": %.2f, "
                "\"warm_over_cold\": %.3f}\n",
                cold_wall, warm_wall, cold_cps, warm_cps, warm_over_cold);
  json += buf;
  json += "  ]\n}\n";

  std::ofstream out(out_path);
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::driver_main(argc, argv, run); }
