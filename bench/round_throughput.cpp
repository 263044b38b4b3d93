// Async round throughput: ready-count RoundGraph execution of the
// event-driven methods (TAFedAvg, FedAsync) across fleet sizes, against the
// same rounds on a 1-thread pool, and emits machine-readable
// BENCH_rounds.json.
//
// Needs no google-benchmark, so CI can always build it; tools/bench_gate.py
// consumes the JSON and fails the bench-regression job when an entry
// regresses against bench/baselines/BENCH_rounds.json.
//
// The gate metric is `speedup_model` = trained jobs / dispatch slots
// (RoundGraphStats::dispatch_slots): the makespan of the executor's
// ready-order policy replayed with unit job costs on the configured thread
// count, so the ratio is the overlap factor that policy achieves.  It
// is a deterministic property of (fleet build, thread count) — byte-stable
// across machines and immune to runner noise — so it gates the *scheduler*,
// not the host.  Wall-clock ms/round on the configured pool and on a
// 1-thread pool are emitted alongside as informational fields; their ratio
// is `speedup_wall` (on a pool with as many free physical cores as
// FEDHISYN_THREADS, it tracks `speedup_model`).
//
//   ./bench_round_throughput --out BENCH_rounds.json [--rounds N]
//                            [--repeat N] [--threads N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/hostinfo.hpp"
#include "common/parallel.hpp"
#include "core/presets.hpp"
#include "core/registry.hpp"
#include "core/round_graph.hpp"
#include "tensor/gemm_tune.hpp"

namespace {

using namespace fedhisyn;

struct Config {
  const char* method;
  std::size_t devices;
  /// 0 = the harness-wide thread count (--threads / FEDHISYN_THREADS).
  std::size_t threads = 0;
};

// Paper-scale is 100 devices with per-round epochs uniform in [5, 50]
// (§6.1); the smaller fleets show how overlap grows with fleet size.  The
// 8-device fleet runs on an 8-thread pool, wider than its ready waves, so
// the entry shows the schedule's overlap when slots sit idle.
constexpr Config kConfigs[] = {
    {"TAFedAvg", 8, 8},  {"TAFedAvg", 25}, {"TAFedAvg", 50}, {"TAFedAvg", 100},
    {"FedAsync", 8, 8},  {"FedAsync", 25}, {"FedAsync", 50}, {"FedAsync", 100},
};

struct Measurement {
  double ms_per_round = 0.0;
  core::RoundGraphStats stats;  // summed over the measured rounds
};

/// Run `rounds` rounds on a fresh algorithm, `repeat` times, on a
/// `threads`-wide pool; keep the fastest run's time and its (deterministic)
/// summed stats.
Measurement measure(const core::BuiltExperiment& built, const Config& config,
                    std::size_t threads, int rounds, int repeat) {
  using clock = std::chrono::steady_clock;
  ParallelExecutor pool(threads);
  ParallelExecutor::Bind bind(pool);
  const core::FlOptions opts;
  Measurement best;
  best.ms_per_round = 1e30;
  for (int r = 0; r < repeat; ++r) {
    auto algorithm = core::make_algorithm(config.method, built.context(opts));
    const auto start = clock::now();
    core::RoundGraphStats total;
    for (int round = 0; round < rounds; ++round) {
      algorithm->run_round();
      const auto& stats = algorithm->last_round_stats();
      total.jobs += stats.jobs;
      total.waves += stats.waves;
      total.dispatch_slots += stats.dispatch_slots;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - start).count() /
        rounds;
    if (ms < best.ms_per_round) {
      best.ms_per_round = ms;
      best.stats = total;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_rounds.json";
  int rounds = 3;
  int repeat = 2;
  std::size_t threads = ParallelExecutor::threads_from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--rounds") {
      rounds = std::atoi(next());
    } else if (arg == "--repeat") {
      repeat = std::atoi(next());
    } else if (arg == "--threads") {
      threads = static_cast<std::size_t>(std::atol(next()));
    } else {
      std::cerr << "usage: bench_round_throughput [--out FILE] [--rounds N] "
                   "[--repeat N] [--threads N]\n";
      return arg == "--help" ? 0 : 2;
    }
  }
  if (threads < 1) threads = 1;
  if (rounds < 1) rounds = 1;
  if (repeat < 1) repeat = 1;

  std::string json;
  json += "{\n  \"schema\": \"fedhisyn-round-throughput/1\",\n";
  json += "  " + host_json_field(gemm_runtime_info().variant) + ",\n";
  json += "  \"threads\": " + std::to_string(threads) + ",\n";
  json += "  \"rounds\": " + std::to_string(rounds) + ",\n";
  json += "  \"entries\": [\n";

  bool first = true;
  for (const auto& config : kConfigs) {
    const std::size_t pool_threads =
        config.threads > 0 ? config.threads : threads;
    core::BuildConfig build;
    build.dataset = "mnist";
    build.scale = core::default_scale(build.dataset, full_scale_enabled());
    build.scale.devices = config.devices;
    build.partition.iid = false;
    build.partition.beta = 0.3;
    const auto built = core::build_experiment(build);

    const auto one_thread = measure(*built, config, 1, rounds, repeat);
    const auto pooled = measure(*built, config, pool_threads, rounds, repeat);

    const double jobs_per_round =
        static_cast<double>(pooled.stats.jobs) / rounds;
    const double speedup_model =
        static_cast<double>(pooled.stats.jobs) /
        static_cast<double>(pooled.stats.dispatch_slots > 0
                                ? pooled.stats.dispatch_slots
                                : pooled.stats.jobs);
    const double speedup_wall = one_thread.ms_per_round / pooled.ms_per_round;

    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    {\"name\": \"%s/d%zu\", \"method\": \"%s\", \"devices\": %zu, "
        "\"threads\": %zu, "
        "\"jobs_per_round\": %.1f, \"waves_per_round\": %.1f, "
        "\"one_thread_ms_per_round\": %.3f, \"ms_per_round\": %.3f, "
        "\"rounds_per_sec\": %.3f, "
        "\"speedup_wall\": %.3f, \"speedup_model\": %.3f}",
        config.method, config.devices, config.method, config.devices,
        pool_threads, jobs_per_round,
        static_cast<double>(pooled.stats.waves) / rounds,
        one_thread.ms_per_round, pooled.ms_per_round,
        1000.0 / pooled.ms_per_round, speedup_wall, speedup_model);
    if (!first) json += ",\n";
    first = false;
    json += line;
    std::fprintf(stderr,
                 "%-14s %3zu devices  %6.1f jobs/round  1-thread %8.2f ms  "
                 "%zu-thread %8.2f ms  wall %5.2fx  model %5.2fx\n",
                 config.method, config.devices, jobs_per_round,
                 one_thread.ms_per_round, pool_threads, pooled.ms_per_round,
                 speedup_wall, speedup_model);
  }
  json += "\n  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json;
  std::cout << out_path << std::endl;
  return 0;
}
