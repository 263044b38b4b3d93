#include "exp/driver.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/net.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/registry.hpp"
#include "exp/dispatch.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn::exp {

namespace {

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::string item;
  for (const char c : text) {
    if (c == ',') {
      if (!item.empty()) items.push_back(item);
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  if (!item.empty()) items.push_back(item);
  return items;
}

/// The one worker-list parser (--workers / FEDHISYN_WORKERS).  Endpoints
/// additionally tolerate spaces after commas ("a:1, b:2") — " b:2" would
/// fail resolution at startup.
std::vector<std::string> split_host_list(const std::string& text) {
  std::string stripped;
  stripped.reserve(text.size());
  for (const char c : text) {
    if (c != ' ') stripped.push_back(c);
  }
  return split_list(stripped);
}

/// The flag's value when given, else the env var when set and non-empty,
/// else `fallback` — the one flag > env > default rule of the driver knobs.
/// Either name may be null: an env-only knob, a flag without env fallback.
std::string flag_env_or(const Flags& flags, const char* flag, const char* env,
                        const std::string& fallback) {
  if (flag != nullptr && flags.has(flag)) return flags.get(flag, "");
  const char* value = env != nullptr ? std::getenv(env) : nullptr;
  return value != nullptr && value[0] != '\0' ? value : fallback;
}

/// Whole-string integer parse: false on empty text, trailing junk or
/// overflow.
bool parse_long(const std::string& text, long* out) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

/// Whole-string floating-point parse, same rules as parse_long.
bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

/// `text` as a count >= 1, check-failing with `what` (the knob's names).
std::size_t positive_count(const std::string& text, const char* what) {
  long value = 0;
  FEDHISYN_CHECK_MSG(parse_long(text, &value) && value > 0,
                     what << " takes a positive integer, got '" << text << "'");
  return static_cast<std::size_t>(value);
}

/// Resolve the five coordinator knobs (grid jobs, backend, workers, retries,
/// cell deadline), check-failing on any malformed value — before the driver
/// touches --out.
GridScheduler::Options resolve_scheduler(const Flags& flags) {
  GridScheduler::Options options;
  options.jobs = positive_count(flag_env_or(flags, "grid-jobs", "FEDHISYN_GRID_JOBS", "1"),
                                "--grid-jobs / FEDHISYN_GRID_JOBS");

  const std::string mode = flag_env_or(flags, "dispatch", "FEDHISYN_DISPATCH", "thread");
  FEDHISYN_CHECK_MSG(mode == "thread" || mode == "process" || mode == "tcp",
                     "--dispatch / FEDHISYN_DISPATCH takes thread|process|tcp, got '"
                         << mode << "'");
  options.backend = mode == "process" ? CellBackend::kProcess
                    : mode == "tcp"   ? CellBackend::kTcp
                                      : CellBackend::kThread;
  // Only the process backend runs cells concurrently: the thread backend
  // runs one at a time, and a tcp sweep has one slot per --workers host.
  FEDHISYN_CHECK_MSG(options.jobs == 1 || options.backend == CellBackend::kProcess,
                     "--grid-jobs / FEDHISYN_GRID_JOBS = "
                         << options.jobs << " counts spawned worker processes: "
                         << "add --dispatch process");

  FEDHISYN_CHECK_MSG(!flags.has("workers") || options.backend == CellBackend::kTcp,
                     "--workers only makes sense with --dispatch tcp");
  FEDHISYN_CHECK_MSG(options.backend != CellBackend::kTcp ||
                         (!flags.has("gemm-kernel") && !flags.has("build-cache-mb")),
                     "--gemm-kernel and --build-cache-mb configure this process's "
                     "workers; a --dispatch tcp host reads its own flags");
  if (options.backend == CellBackend::kTcp) {
    options.worker_hosts =
        split_host_list(flag_env_or(flags, "workers", "FEDHISYN_WORKERS", ""));
    FEDHISYN_CHECK_MSG(!options.worker_hosts.empty(),
                       "--dispatch tcp needs worker endpoints: pass --workers "
                       "host:port,... or set FEDHISYN_WORKERS");
    // Check-fails on a malformed endpoint now rather than mid-sweep.
    for (const auto& host : options.worker_hosts) net::parse_host_port(host, "127.0.0.1");
  }

  const std::string retries_text =
      flag_env_or(flags, nullptr, "FEDHISYN_WORKER_RETRIES", "2");
  long retries = 0;
  FEDHISYN_CHECK_MSG(parse_long(retries_text, &retries),
                     "FEDHISYN_WORKER_RETRIES takes an integer, got '" << retries_text
                                                                       << "'");
  // A negative count keeps the default of 2 retries (3 tries).
  if (retries >= 0) {
    options.max_attempts = static_cast<int>(std::min<long>(retries, INT_MAX - 1)) + 1;
  }

  const std::string timeout_text =
      flag_env_or(flags, nullptr, "FEDHISYN_CELL_TIMEOUT_S", "0");
  double timeout = 0.0;
  // Bounded: the deadline clock counts int64 nanoseconds (overflowing near
  // 9.2e9 s) and holds no inf or NaN.
  FEDHISYN_CHECK_MSG(parse_double(timeout_text, &timeout) && std::isfinite(timeout) &&
                         timeout < 1e9,
                     "FEDHISYN_CELL_TIMEOUT_S takes a number of seconds below 1e9, got '"
                         << timeout_text << "'");
  // A non-positive deadline means off.
  options.cell_timeout_s = timeout > 0.0 ? timeout : 0.0;
  return options;
}

/// Comma-separated list flag: the flag's items when given non-empty, else
/// `defaults`.
std::vector<std::string> list_flag(const Flags& flags, const std::string& key,
                                   std::vector<std::string> defaults) {
  const std::string raw = flags.get(key, "");
  if (raw.empty()) return defaults;
  auto items = split_list(raw);
  FEDHISYN_CHECK_MSG(!items.empty(), "--" << key << " given an empty list");
  return items;
}

}  // namespace

WorkerConfig resolve_worker_config(const Flags& flags) {
  WorkerConfig config;
  const std::string quiet = flag_env_or(flags, "quiet", "FEDHISYN_QUIET", "0");
  config.quiet = quiet != "0" && quiet != "off" && quiet != "false";
  const std::string mb_text =
      flag_env_or(flags, "build-cache-mb", "FEDHISYN_BUILD_CACHE_MB", "");
  if (!mb_text.empty()) {
    double mb = 0.0;
    const bool parsed = parse_double(mb_text, &mb);
    // The cast below is undefined unless the byte count is finite and fits.
    const double bytes = mb * 1024.0 * 1024.0;
    FEDHISYN_CHECK_MSG(
        parsed && mb >= 0.0 &&
            bytes < static_cast<double>(std::numeric_limits<std::size_t>::max()),
        "--build-cache-mb / FEDHISYN_BUILD_CACHE_MB takes a byte budget in MiB "
        "(0 disables build caching), got '"
            << mb_text << "'");
    config.build_cache_bytes = static_cast<std::size_t>(bytes);
  }
  return config;
}

int driver_main(int argc, char** argv, int (*body)(int argc, char** argv)) {
  try {
    return body(argc, argv);
  } catch (const CheckError& error) {
    std::string program = argc > 0 ? argv[0] : "fedhisyn";
    program.erase(0, program.find_last_of('/') + 1);
    std::fprintf(stderr, "%s: %s\n", program.c_str(), error.what());
    return 2;
  }
}

GridDriverOptions handle_grid_flags(const Flags& flags,
                                    const std::vector<std::string>& own_flags) {
  std::vector<std::string> known = {
      "threads", "grid-jobs", "dispatch", "workers", "out", "resume", "quiet", "trace",
      "metrics-out", "build-cache-mb", "gemm-kernel", "list-methods", "gemm-info", "serve"};
  known.insert(known.end(), own_flags.begin(), own_flags.end());
  for (const std::string& key : flags.keys()) {
    FEDHISYN_CHECK_MSG(std::find(known.begin(), known.end(), key) != known.end(),
                       "unknown flag --" << key);
  }
  // The worker knobs resolve before the --serve branch: a worker runs on
  // them.  An unknown or unsupported kernel fails here, not in a gemm call.
  const WorkerConfig worker = resolve_worker_config(flags);
  gemm_runtime_select(flag_env_or(flags, "gemm-kernel", "FEDHISYN_GEMM_KERNEL", "auto"));
  if (!worker.quiet) {
    std::fprintf(stderr, "fedhisyn: gemm variant=%s\n", gemm_runtime_info().variant.c_str());
  }
  if (flags.has("serve")) {
    // Dispatch-worker mode: serve the exp/dispatch.hpp protocol over TCP,
    // for a --dispatch tcp coordinator or as a child the process backend
    // spawned.  Never returns to the driver.
    std::exit(serve_main(flags.get("serve", ""), worker));
  }
  if (flags.get_bool("list-methods")) {
    for (const auto& method : core::registered_methods()) {
      std::printf("%-10s %s\n", method.c_str(),
                  core::method_description(method).c_str());
    }
    std::exit(0);
  }
  if (flags.get_bool("gemm-info")) {
    std::printf("%s", gemm_info_string().c_str());
    std::exit(0);
  }
  if (flags.has("threads")) {
    ParallelExecutor::global().set_thread_count(
        positive_count(flags.get("threads", ""), "--threads"));
  }
  GridDriverOptions options;
  options.scheduler = resolve_scheduler(flags);
  options.scheduler.worker = worker;
  options.out = flags.get("out", "");
  options.resume = flags.get_bool("resume");
  // Tracing resolves after the --serve branch on purpose: a worker never
  // sink-traces a whole run — it records per cell when a request's trace
  // field asks, and FEDHISYN_TRACE is deliberately not exported to children
  // (each worker's spans travel the wire instead).
  options.trace_out = flags.get("trace", "");
  if (options.trace_out.empty()) {
    const char* env = std::getenv("FEDHISYN_TRACE");
    if (env != nullptr) options.trace_out = env;
  }
  if (!options.trace_out.empty()) trace::set_enabled(true);
  options.metrics_out = flags.get("metrics-out", "");
  return options;
}

std::vector<CellResult> run_grid(const std::vector<ExperimentSpec>& specs,
                                 const GridDriverOptions& options) {
  const std::size_t total = specs.size();
  std::vector<CellResult> results(total);
  const bool csv = is_csv_path(options.out);
  const bool streaming = !options.out.empty() && !csv;
  FEDHISYN_CHECK_MSG(!options.resume || streaming,
                     "--resume needs --out pointing at a JSONL results file "
                     "(CSV rows carry no spec key)");

  // Resume: finished cells are identified by spec key; their verbatim lines
  // are kept for the final rewrite so resumed bytes never churn.
  std::vector<bool> resumed(total, false);
  std::vector<std::string> resumed_lines(total);
  std::size_t resumed_count = 0;
  if (options.resume) {
    std::map<std::string, ScannedResult> by_key;
    for (auto& scanned : scan_results(options.out)) {
      by_key[scanned.key] = std::move(scanned);
    }
    for (std::size_t i = 0; i < total; ++i) {
      const auto it = by_key.find(specs[i].to_key());
      if (it == by_key.end()) continue;
      resumed[i] = true;
      resumed_lines[i] = it->second.line;
      ++resumed_count;
      results[i].spec = specs[i];
      results[i].result.algorithm = specs[i].method;
      results[i].result.final_accuracy = it->second.final_accuracy;
      results[i].result.best_accuracy = it->second.best_accuracy;
      results[i].result.comm_to_target = it->second.comm_to_target;
      results[i].result.rounds_to_target = it->second.rounds_to_target;
    }
    if (!options.scheduler.worker.quiet && resumed_count > 0) {
      std::fprintf(stderr, "resume: %zu/%zu cells already complete in %s\n",
                   resumed_count, total, options.out.c_str());
    }
    // An interrupted append may have left a partial final line with no
    // newline; close it off so the first fresh line cannot glue onto it.
    terminate_partial_line(options.out);
  } else if (streaming) {
    // Fresh sweep: start the streaming sink empty (atomically, so a stale
    // file from an earlier run can never be half-mixed with this one).
    write_lines_atomic(options.out, {});
  }

  std::vector<ExperimentSpec> pending_specs;
  std::vector<std::size_t> pending_index;
  for (std::size_t i = 0; i < total; ++i) {
    if (resumed[i]) continue;
    pending_specs.push_back(specs[i]);
    pending_index.push_back(i);
  }

  if (!pending_specs.empty()) {
    const double start = trace::clock_seconds();
    GridScheduler::Options sched = options.scheduler;
    // Called on this thread by every backend, so the append-order in the
    // streaming sink is completion order; the final rewrite below restores
    // spec order.
    sched.on_cell = [&](std::size_t done, std::size_t count, const CellResult& cell) {
      if (streaming) append_result_line(options.out, to_jsonl_line(cell));
      // The latency histogram feeds the progress line's p50/p95 and the
      // --metrics-out dump; recorded even under --quiet so the dump does not
      // depend on verbosity.
      static counters::Histogram& latency =
          counters::histogram("grid.cell_seconds_us");
      latency.record(static_cast<std::uint64_t>(cell.seconds * 1e6));
      if (options.scheduler.worker.quiet) return;
      const double elapsed = trace::clock_seconds() - start;
      const double eta = elapsed / static_cast<double>(done) *
                         static_cast<double>(count - done);
      std::fprintf(stderr, "[%zu/%zu] %s  %.1fs  p50 %.1fs p95 %.1fs  eta %.0fs\n",
                   done, count, cell.spec.label().c_str(), cell.seconds,
                   static_cast<double>(latency.quantile(0.5)) / 1e6,
                   static_cast<double>(latency.quantile(0.95)) / 1e6, eta);
    };
    auto fresh = GridScheduler(sched).run(pending_specs);
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      results[pending_index[k]] = std::move(fresh[k]);
    }
  }

  // Observability outputs last, after every worker's telemetry is merged.
  // Distinct files from --out on purpose: neither may ever touch result
  // bytes.
  if (!options.trace_out.empty()) trace::write_chrome_trace(options.trace_out);
  if (!options.metrics_out.empty()) counters::write_metrics(options.metrics_out);

  if (!options.out.empty()) {
    if (csv) {
      write_results(options.out, results);
    } else {
      std::vector<std::string> lines;
      lines.reserve(total);
      for (std::size_t i = 0; i < total; ++i) {
        lines.push_back(resumed[i] ? resumed_lines[i] : to_jsonl_line(results[i]));
      }
      write_lines_atomic(options.out, lines);
    }
  }
  return results;
}

std::vector<std::string> datasets_from_flags(const Flags& flags,
                                             std::vector<std::string> defaults) {
  return list_flag(flags, "dataset", std::move(defaults));
}

std::vector<double> participations_from_flags(const Flags& flags,
                                              std::vector<double> defaults) {
  const auto items = list_flag(flags, "part", {});
  if (items.empty()) return defaults;
  std::vector<double> fractions;
  for (const auto& item : items) {
    char* end = nullptr;
    const double percent = std::strtod(item.c_str(), &end);
    FEDHISYN_CHECK_MSG(end != item.c_str() && *end == '\0' && percent > 0.0 &&
                           percent <= 100.0,
                       "--part value '" << item << "' is not a percentage");
    fractions.push_back(percent / 100.0);
  }
  return fractions;
}

std::vector<data::PartitionConfig> partitions_from_flags(
    const Flags& flags, std::vector<data::PartitionConfig> defaults) {
  const auto items = list_flag(flags, "partition", {});
  if (items.empty()) return defaults;
  std::vector<data::PartitionConfig> partitions;
  for (const auto& item : items) {
    data::PartitionConfig config;
    if (item == "iid" || item == "IID") {
      config.iid = true;
      config.beta = 0.0;
    } else if (item.rfind("dir", 0) == 0) {
      const std::string beta = item.substr(3);
      char* end = nullptr;
      config.iid = false;
      config.beta = std::strtod(beta.c_str(), &end);
      FEDHISYN_CHECK_MSG(end != beta.c_str() && *end == '\0' && config.beta > 0.0,
                         "--partition token '" << item << "' needs dir<beta>");
    } else {
      FEDHISYN_CHECK_MSG(false, "--partition token '" << item
                                                      << "' is not iid or dir<beta>");
    }
    partitions.push_back(config);
  }
  return partitions;
}

}  // namespace fedhisyn::exp
