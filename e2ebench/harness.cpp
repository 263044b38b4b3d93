// End-to-end sweep benchmark harness.  Drives the library only through its
// public entry points — exp::GridScheduler::run, exp::TcpDispatcher::run,
// exp::build_for, exp::BuildCache::get, core::make_algorithm,
// FlAlgorithm::run_round / evaluate_test_accuracy and counters::snapshot()
// deltas — on one fixed workload, and prints a one-line JSON report that
// e2ebench/run.py turns into the benchmark's result line.  README.md in this
// directory explains the workloads and every metric.
//
//   e2e_harness --workload table1-mlp --seed 1 --seconds 40 --trace 0
//               --golden e2ebench/golden/table1-mlp.tsv
//   e2e_harness --emit-golden --workload dispatch-tcp --variant 3
//               [--threads 1] [--backend tcp]
//   e2e_harness --serve 127.0.0.1:0     (a dispatch worker; dispatch-tcp
//                                       starts two of these itself)
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.hpp"
#include "common/flags.hpp"
#include "common/hostinfo.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "common/parallel.hpp"
#include "common/subprocess.hpp"
#include "common/trace.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "exp/build_cache.hpp"
#include "exp/dispatch.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "tensor/gemm_tune.hpp"

namespace {

using namespace fedhisyn;
using Clock = std::chrono::steady_clock;

// Seeds congruent modulo kVariants build identical inputs, so the golden
// files can hold every input the benchmark can be asked to run.
constexpr std::uint64_t kVariants = 8;
// A run times at least this many passes, whatever --seconds says.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kTcpWorkers = 2;
constexpr std::size_t kTcpWorkerThreads = 1;
constexpr int kTcpTracePairs = 5;
// The host-speed probe (probe_seconds) runs kProbesPerSetup times after
// every set-up repetition on kProbeThreads threads — the busy threads of
// either workload.  kProbeReferenceS is its median on the reference host
// (README.md): every reported time is scaled to that host's speed.
constexpr int kProbesPerSetup = 3;
constexpr std::size_t kProbeThreads = 2;
constexpr double kProbeReferenceS = 0.0029;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank value at the highest whole percentile with at least ten
/// samples beyond it; the median when there are fewer than 20 samples.
double tail(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double pct = n >= 20 ? std::floor(100.0 * (1.0 - 10.0 / n)) : 50.0;
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return values[rank > 0 ? rank - 1 : 0];
}

// ------------------------------------------------------------ workloads --

struct Workload {
  std::string name;
  /// Pool size of the harness process (the tcp coordinator only polls).
  std::size_t threads = 2;
  /// Cells go through TcpDispatcher to kTcpWorkers loopback --serve workers
  /// of kTcpWorkerThreads threads each.
  bool tcp = false;
  /// One pass, in spec order.
  std::vector<exp::ExperimentSpec> specs;
  /// Thread backend: spec prefix run once, untimed, before measuring.
  std::size_t warm_cells = 0;
  /// Wall seconds of one pass on the reference host (README.md).  A run
  /// times a fixed number of passes, --seconds / nominal_pass_s, so that
  /// its medians never depend on how fast the host or the program ran.
  double nominal_pass_s = 1;
  /// Set-up repetitions before the first cell.  One more follows every
  /// `setup_every` timed cells (dispatch-tcp: passes), outside the timings,
  /// so the reps sample the whole run.
  std::size_t setup_reps = 5;
  std::size_t setup_every = 6;
  /// Scale the end-to-end times to the reference host's speed by the
  /// host-speed probe.  Only where the probe tracks the workload: it is
  /// compute, like table1-mlp's cells, while dispatch-tcp's time goes to
  /// the wire, the poll loop and process wake-ups, and scaling it by the
  /// probe doubled its spread.
  bool scaled = true;
};

Workload make_workload(const std::string& name, std::uint64_t variant) {
  Workload w;
  w.name = name;
  // The build (data, partition, fleet) is fixed per workload: a fleet's
  // speed draw sets how many local-training jobs a round holds, so a seeded
  // build would change the amount of work from seed to seed.  The seed
  // varies the algorithm's randomness instead — model initialisation,
  // participant draws and every job's Rng stream — with a seed of its own
  // per cell, so the cells' draws average out over a pass.
  const auto new_grid = [] {
    exp::ExperimentGrid grid;
    grid.base().build.seed = 101;
    grid.base().opts.speculate = true;
    grid.base().build.mlp_hidden = {32, 16};
    return grid;
  };
  if (name == "table1-mlp") {
    // The laptop-scale Table-1 grid at p50, all seven methods.
    exp::ExperimentGrid table1 = new_grid();
    table1.participations({0.5})
        .partitions({{true, 0.0}, {false, 0.3}})
        .datasets({"mnist", "cifar10"})
        .methods(core::table1_methods())
        .auto_scale(false)
        .override_each([](exp::ExperimentSpec& spec) {
          spec.opts.clusters = 5;
          spec.eval_every = 3;
        });
    // Then one paper-CNN cell on cifar10 per round engine — ring
    // (FedHiSyn), synchronous (FedAvg), async commit chain (TAFedAvg) — so
    // that im2col and the wide GEMM kernel are measured too.
    exp::ExperimentGrid cnn = new_grid();
    cnn.base().build.use_cnn = true;
    cnn.base().build.scale = {6, 10, 100, 6};
    cnn.base().opts.clusters = 3;
    cnn.base().eval_every = 2;
    cnn.partitions({{false, 0.3}}).datasets({"cifar10"}).methods({"FedHiSyn", "FedAvg", "TAFedAvg"});
    w.specs = table1.expand();
    for (auto& spec : cnn.expand()) w.specs.push_back(std::move(spec));
    w.warm_cells = core::table1_methods().size();
    w.nominal_pass_s = 8.5;
  } else if (name == "dispatch-tcp") {
    // Many tiny cells; the build axis is innermost, so consecutive cells
    // alternate between the 8 builds and the affinity pass has work to do.
    w.tcp = true;
    w.threads = 1;
    exp::ExperimentGrid grid = new_grid();
    grid.base().build.scale = {8, 10, 64, 2};
    grid.base().opts.clusters = 2;
    grid.participations({1.0, 0.5})
        .methods(core::table1_methods())
        .datasets({"mnist", "cifar10"})
        .partitions({{true, 0.0}, {false, 0.8}, {false, 0.3}, {false, 0.1}});
    w.specs = grid.expand();
    w.nominal_pass_s = 0.4;
    w.setup_reps = 40;
    w.setup_every = 4;
    w.scaled = false;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "' (table1-mlp | dispatch-tcp)");
  }
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    w.specs[i].opts.seed = 101 + 1000 * variant + i;
  }
  return w;
}

/// The first spec of every distinct build_key(), in spec order.
std::vector<exp::ExperimentSpec> distinct_builds(const std::vector<exp::ExperimentSpec>& specs) {
  std::vector<exp::ExperimentSpec> out;
  std::vector<std::string> seen;
  for (const auto& spec : specs) {
    const std::string key = spec.build_key();
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    out.push_back(spec);
  }
  return out;
}

// --------------------------------------------------------------- golden --

/// A cell's golden line: label, Table-1 cell and exact final accuracy.
std::string result_line(const exp::ExperimentSpec& spec, const core::ExperimentResult& r) {
  return spec.label() + "\t" + r.table_cell() + "\t" + json::fmt_float(r.final_accuracy);
}

/// The variant's lines from a golden file ("variant<TAB>line"; '#' comments).
std::vector<std::string> load_golden(const std::string& path, std::uint64_t variant) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  const std::string prefix = std::to_string(variant) + "\t";
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) lines.push_back(line.substr(prefix.size()));
  }
  return lines;
}

// ------------------------------------------------------------- counters --

using Snapshot = std::map<std::string, std::uint64_t>;

std::uint64_t delta(const Snapshot& before, const Snapshot& after, const char* name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

/// Work counts of one pass; they must repeat exactly for a fixed input.
struct Counts {
  std::uint64_t gemm_calls = 0;
  std::uint64_t jobs = 0;
  std::uint64_t builds = 0;

  static Counts between(const Snapshot& before, const Snapshot& after) {
    return {delta(before, after, "gemm.calls"), delta(before, after, "round_graph.jobs"),
            delta(before, after, "build_cache.misses")};
  }
};

// ---------------------------------------------------------------- spans --

/// The harness's own spans, kept in memory and written once at the end.
struct SpanLog {
  struct Span {
    std::string name;
    std::string detail;
    int lane = 0;
    double start_s = 0;
    double dur_s = 0;
  };
  Clock::time_point epoch = Clock::now();
  int lane = 0;
  std::vector<Span> spans;

  template <typename Fn>
  auto time(const char* name, const std::string& detail, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    struct Record {
      SpanLog* log;
      const char* name;
      const std::string& detail;
      Clock::time_point start;
      ~Record() {
        log->spans.push_back({name, detail, log->lane,
                              std::chrono::duration<double>(start - log->epoch).count(),
                              seconds_since(start)});
      }
    } record{this, name, detail, start};
    return fn();
  }

  /// Durations in ms of spans named `name` (and `detail`, when non-empty)
  /// on `lane`.
  std::vector<double> ms(const std::string& name, int on_lane,
                         const std::string& detail = "") const {
    std::vector<double> out;
    for (const auto& span : spans) {
      if (span.lane == on_lane && span.name == name && (detail.empty() || span.detail == detail)) {
        out.push_back(span.dur_s * 1e3);
      }
    }
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "{\"traceEvents\":[";
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"untraced twin pass\"}},"
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
           "\"args\":{\"name\":\"traced pass\"}}";
    for (const auto& span : spans) {
      out << ",\n{\"name\":\"" << json::escape(span.name) << "\",\"cat\":\"e2ebench\","
          << "\"ph\":\"X\",\"pid\":0,\"tid\":" << span.lane
          << ",\"ts\":" << json::fmt_double(span.start_s * 1e6)
          << ",\"dur\":" << json::fmt_double(span.dur_s * 1e6) << ",\"args\":{\"detail\":\""
          << json::escape(span.detail) << "\"}}";
    }
    out << "]}\n";
  }
};

// -------------------------------------------------------------- workers --

/// kTcpWorkers loopback `--serve` workers (this binary), started and
/// greeted; killed and reaped on destruction.
class WorkerFleet {
 public:
  WorkerFleet(std::size_t workers, std::size_t threads) {
    const std::vector<std::string> env = {"FEDHISYN_THREADS=" + std::to_string(threads),
                                          "FEDHISYN_QUIET=1"};
    for (std::size_t i = 0; i < workers; ++i) {
      procs_.push_back(std::make_unique<Subprocess>(
          std::vector<std::string>{current_executable_path(), "--serve", "127.0.0.1:0"}, env));
    }
    for (const auto& proc : procs_) {
      net::LineReader reader(proc->stdout_fd());
      std::string line;
      if (reader.read_line(&line, net::Deadline::after(30)) != net::LineReader::Status::kLine) {
        throw std::runtime_error("worker did not announce its port");
      }
      endpoints_.push_back("127.0.0.1:" + line.substr(line.rfind(':') + 1));
    }
    // Connect once to each worker and wait for its hello: set-up ends when
    // every worker is ready to take a cell.
    for (const auto& endpoint : endpoints_) {
      const net::HostPort hp = net::parse_host_port(endpoint, "127.0.0.1");
      const int fd = net::tcp_connect(hp.host, hp.port, net::Deadline::after(10));
      if (fd < 0) throw std::runtime_error("cannot connect to worker " + endpoint);
      net::LineReader reader(fd);
      std::string hello;
      const auto status = reader.read_line(&hello, net::Deadline::after(10));
      ::close(fd);
      if (status != net::LineReader::Status::kLine ||
          hello.find("fedhisyn-worker") == std::string::npos) {
        throw std::runtime_error("worker " + endpoint + " sent no hello");
      }
    }
  }

  const std::vector<std::string>& endpoints() const { return endpoints_; }

  /// CPU seconds the live workers' threads have run so far, from the
  /// nanosecond counters in /proc/<pid>/task/<tid>/schedstat.
  double cpu_seconds() const {
    double total = 0.0;
    for (const auto& proc : procs_) {
      const std::string tasks = "/proc/" + std::to_string(proc->pid()) + "/task";
      for (const auto& task : std::filesystem::directory_iterator(tasks)) {
        std::ifstream in(task.path() / "schedstat");
        double ns = 0;
        if (in >> ns) total += ns * 1e-9;
      }
    }
    return total;
  }

 private:
  std::vector<std::unique_ptr<Subprocess>> procs_;
  std::vector<std::string> endpoints_;
};

double self_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// --------------------------------------------------------------- passes --

volatile float g_probe_sink = 0;

/// Wall seconds of a fixed compute kernel — four 128x128 float matrix
/// products on each of kProbeThreads threads at once.  It is the harness's
/// own code, so no change to the program can move it: it only tells how
/// fast the host runs at the moment.
double probe_seconds() {
  const auto work = [] {
    constexpr int n = 128;
    static thread_local std::vector<float> a(n * n, 1.001f), b(n * n, 0.999f), c(n * n);
    for (int rep = 0; rep < 4; ++rep) {
      std::fill(c.begin(), c.end(), 0.0f);
      for (int i = 0; i < n; ++i) {
        for (int k = 0; k < n; ++k) {
          const float aik = a[i * n + k];
          for (int j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
        }
      }
      g_probe_sink = c[n + 1];
    }
  };
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < kProbeThreads; ++t) pool.emplace_back(work);
  work();
  for (auto& thread : pool) thread.join();
  return seconds_since(start);
}

struct PassResult {
  std::size_t cells = 0;
  std::size_t failed = 0;
  /// Wall and CPU seconds of the harness and its workers over the pass,
  /// less the untimed work between cells.
  double wall_s = 0;
  double cpu_s = 0;
  /// Thread backend: each cell's wall seconds, build included, in spec order.
  std::vector<double> cell_wall_s;
  /// Sum of the cells' own CellResult::seconds.
  double cell_seconds = 0;
  Counts counts;
  Snapshot before, after;
};

class Runner {
 public:
  Runner(Workload workload, std::vector<std::string> golden, std::size_t worker_threads)
      : w_(std::move(workload)), golden_(std::move(golden)), worker_threads_(worker_threads) {}

  const Workload& workload() const { return w_; }

  void start_workers() {
    fleet_.reset();
    fleet_ = std::make_unique<WorkerFleet>(kTcpWorkers, worker_threads_);
  }
  void stop_workers() { fleet_.reset(); }

  /// CPU seconds used so far by the harness and its live workers.
  double cpu_seconds() const {
    return self_cpu_seconds() + (fleet_ ? fleet_->cpu_seconds() : 0.0);
  }

  /// Cells through the production path: GridScheduler (thread backend) or
  /// TcpDispatcher (dispatch-tcp).  Throws on a cell failure.  `on_cell`
  /// runs after each cell of the serial thread backend.
  std::vector<exp::CellResult> run_cells(const std::vector<exp::ExperimentSpec>& specs,
                                         const std::vector<std::string>& hosts,
                                         const std::function<void()>& on_cell = {}) const {
    if (w_.tcp) {
      exp::TcpDispatcher::Options options;
      options.hosts = hosts;
      options.cell_timeout_s = 0;
      return exp::TcpDispatcher(std::move(options)).run(specs);
    }
    exp::GridScheduler::Options options;
    options.jobs = 1;
    options.total_threads = w_.threads;
    options.backend = exp::CellBackend::kThread;
    if (on_cell) {
      options.on_cell = [&](std::size_t, std::size_t, const exp::CellResult&) { on_cell(); };
    }
    return exp::GridScheduler(std::move(options)).run(specs);
  }

  std::vector<std::string> hosts() const {
    return fleet_ ? fleet_->endpoints() : std::vector<std::string>{};
  }

  void warm_up() {
    if (w_.tcp) {
      // Every worker alone gets one cell of every build, so both caches
      // hold all builds and no timed pass builds at all; then one full
      // untimed pass.
      for (const auto& host : hosts()) run_cells(distinct_builds(w_.specs), {host});
      run_cells(w_.specs, hosts());
    } else {
      run_cells(std::vector<exp::ExperimentSpec>(w_.specs.begin(),
                                                 w_.specs.begin() + w_.warm_cells),
                {});
    }
  }

  /// One pass through the production path, checked against the golden lines.
  /// `between` runs after every cell (dispatch-tcp: after the pass), and
  /// its time is taken out of the pass's.
  PassResult production_pass(const std::function<void()>& between = [] {}) const {
    PassResult pass;
    pass.before = counters::snapshot();
    double untimed_wall_s = 0;
    double untimed_cpu_s = 0;
    Clock::time_point cell_start = Clock::now();
    const auto on_cell = [&] {
      const Clock::time_point cell_end = Clock::now();
      pass.cell_wall_s.push_back(std::chrono::duration<double>(cell_end - cell_start).count());
      const double cpu = cpu_seconds();
      between();
      untimed_cpu_s += cpu_seconds() - cpu;
      untimed_wall_s += seconds_since(cell_end);
      cell_start = Clock::now();
    };
    const double cpu_start = cpu_seconds();
    const Clock::time_point start = Clock::now();
    try {
      const std::vector<exp::CellResult> cells =
          run_cells(w_.specs, hosts(), w_.tcp ? std::function<void()>{} : on_cell);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        pass.cell_seconds += cells[i].seconds;
        if (!matches(i, cells[i].spec, cells[i].result)) ++pass.failed;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: pass failed: %s\n", e.what());
      pass.failed = w_.specs.size();
    }
    pass.wall_s = seconds_since(start) - untimed_wall_s;
    pass.cpu_s = cpu_seconds() - cpu_start - untimed_cpu_s;
    pass.cells = w_.specs.size();
    pass.after = counters::snapshot();
    pass.counts = Counts::between(pass.before, pass.after);
    if (w_.tcp) between();
    return pass;
  }

  /// One pass with the harness's own spans around every layer call.  The
  /// thread workloads run each cell through build cache, make_algorithm,
  /// run_round and evaluate_test_accuracy directly; dispatch-tcp can only
  /// time whole cells from outside.
  PassResult layered_pass(SpanLog& log) const {
    if (w_.tcp) {
      PassResult pass;
      log.time("pass", w_.name, [&] {
        pass = production_pass();
        return 0;
      });
      return pass;
    }
    PassResult pass;
    pass.before = counters::snapshot();
    const Clock::time_point start = Clock::now();
    exp::BuildCache cache(exp::BuildCache::Config{exp::BuildCache::default_budget_bytes(), {}});
    for (std::size_t i = 0; i < w_.specs.size(); ++i) {
      const exp::ExperimentSpec& spec = w_.specs[i];
      try {
        log.time("cell", spec.label(), [&] {
          bool hit = false;
          const auto built = log.time("build_cache.get", spec.build_key(),
                                      [&] { return cache.get(spec, &hit); });
          if (!hit) log.spans.back().name = "build";
          const core::ExperimentResult result = layered_cell(spec, *built, log);
          if (!matches(i, spec, result)) ++pass.failed;
          return 0;
        });
      } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: cell %s failed: %s\n", spec.label().c_str(), e.what());
        ++pass.failed;
      }
    }
    pass.wall_s = seconds_since(start);
    pass.cells = w_.specs.size();
    pass.after = counters::snapshot();
    pass.counts = Counts::between(pass.before, pass.after);
    return pass;
  }

 private:
  bool matches(std::size_t i, const exp::ExperimentSpec& spec,
               const core::ExperimentResult& result) const {
    const std::string line = result_line(spec, result);
    if (i < golden_.size() && golden_[i] == line) return true;
    std::fprintf(stderr, "e2ebench: golden mismatch at cell %zu: got '%s', want '%s'\n", i,
                 line.c_str(), i < golden_.size() ? golden_[i].c_str() : "(none)");
    return false;
  }

  /// exp::run_cell and core::ExperimentRunner::run (src/exp/scheduler.cpp,
  /// src/core/runner.cpp) with every layer call timed.  It must do exactly
  /// what they do: the golden check catches a change in results, and
  /// trace.twin_ratio (twin wall over production wall) catches a change in
  /// cost between the copy and the real path.
  static core::ExperimentResult layered_cell(const exp::ExperimentSpec& spec,
                                             const core::BuiltExperiment& built, SpanLog& log) {
    const auto algorithm = log.time("make_algorithm", spec.method, [&] {
      return core::make_algorithm(spec.method, built.context(spec.opts));
    });
    const int rounds = spec.build.scale.rounds;
    const float target = spec.resolved_target();
    const double expected_participants = std::max(
        1.0, static_cast<double>(built.fed.device_count()) * spec.opts.participation);
    core::ExperimentResult result;
    result.algorithm = algorithm->name();
    for (int round = 1; round <= rounds; ++round) {
      log.time("run_round", spec.method, [&] {
        algorithm->run_round();
        return 0;
      });
      if (round % spec.eval_every != 0 && round != rounds) continue;
      core::RoundRecord record;
      record.round = round;
      record.accuracy = log.time("evaluate", spec.method,
                                 [&] { return algorithm->evaluate_test_accuracy(); });
      record.comm_rounds = algorithm->comm().server_model_units() / (2.0 * expected_participants);
      record.d2d_transfers = algorithm->comm().device_to_device_units();
      result.history.push_back(record);
      result.final_accuracy = record.accuracy;
      result.best_accuracy = std::max(result.best_accuracy, record.accuracy);
      if (!result.comm_to_target.has_value() && record.accuracy >= target) {
        result.comm_to_target = record.comm_rounds;
        result.rounds_to_target = round;
      }
    }
    return result;
  }

  Workload w_;
  std::vector<std::string> golden_;
  std::size_t worker_threads_;
  std::unique_ptr<WorkerFleet> fleet_;
};

// --------------------------------------------------------------- report --

class Report {
 public:
  void metric(const std::string& name, double value) {
    metrics_ << (metrics_.tellp() > 0 ? "," : "") << "\"" << name
             << "\":" << json::fmt_double(value);
  }
  void counts(const std::vector<Counts>& passes) {
    for (const auto& c : passes) {
      counts_ << (counts_.tellp() > 0 ? "," : "") << "{\"gemm.calls\":" << c.gemm_calls
              << ",\"round_graph.jobs\":" << c.jobs << ",\"build.count\":" << c.builds << "}";
    }
  }
  std::string json(const std::string& head) const {
    return "{" + head + ",\"counts\":[" + counts_.str() + "],\"metrics\":{" + metrics_.str() +
           "}}";
  }

 private:
  std::ostringstream metrics_;
  std::ostringstream counts_;
};

std::string provenance(const Workload& w, std::uint64_t seed, std::uint64_t variant) {
  std::ostringstream out;
  out << "\"workload\":\"" << w.name << "\",\"seed\":" << seed << ",\"variant\":" << variant
      << ",\"cpu\":\"" << json::escape(cpu_model_name())
      << "\",\"nproc\":" << std::thread::hardware_concurrency() << ",\"gemm_variant\":\""
      << json::escape(gemm_runtime_info().variant) << "\",\"threads\":" << w.threads
      << ",\"workers\":" << (w.tcp ? kTcpWorkers : 0)
      << ",\"worker_threads\":" << (w.tcp ? kTcpWorkerThreads : 0);
  return out.str();
}

double sum_delta(const std::vector<PassResult>& passes, const char* name) {
  double total = 0;
  for (const auto& pass : passes) total += static_cast<double>(delta(pass.before, pass.after, name));
  return total;
}

/// Traced over untraced wall: the median over cells of the per-cell ratio
/// (thread workloads), or of the pass medians (dispatch-tcp), so one slow
/// stretch on a shared host does not decide it.
double trace_overhead(const Workload& w, const SpanLog& log) {
  if (w.tcp) return median(log.ms("pass", 1)) / median(log.ms("pass", 0));
  const std::vector<double> twin = log.ms("cell", 0);
  const std::vector<double> traced = log.ms("cell", 1);
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(twin.size(), traced.size()); ++i) {
    ratios.push_back(traced[i] / twin[i]);
  }
  return median(ratios);
}

/// Twin over production wall, the median over cells of the per-cell ratio:
/// how far the traced pass's copy of the cell path has drifted from the
/// real one.  0 on dispatch-tcp, whose twin is a production pass.
double twin_ratio(const Workload& w, const SpanLog& log, const PassResult& production) {
  if (w.tcp) return 0;
  const std::vector<double> twin = log.ms("cell", 0);
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(twin.size(), production.cell_wall_s.size()); ++i) {
    ratios.push_back(twin[i] / (production.cell_wall_s[i] * 1e3));
  }
  return median(ratios);
}

void per_layer_metrics(Report& report, const Runner& runner, const SpanLog& log,
                       const PassResult& production, const std::vector<PassResult>& twins,
                       const PassResult& traced, const std::vector<double>& build_ms,
                       std::uint64_t dropped) {
  const Workload& w = runner.workload();
  const auto d = [&](const char* name) {
    return static_cast<double>(delta(traced.before, traced.after, name));
  };
  const double pack_ms = d("gemm.pack_us") / 1e3;
  const double kernel_ms = d("gemm.kernel_us") / 1e3;
  report.metric("gemm.calls", d("gemm.calls"));
  report.metric("gemm.pack_ms", pack_ms);
  report.metric("gemm.kernel_ms", kernel_ms);
  report.metric("gemm.pack_share", pack_ms + kernel_ms > 0 ? pack_ms / (pack_ms + kernel_ms) : 0);

  for (const auto& method : core::table1_methods()) {
    const std::vector<double> rounds = log.ms("run_round", 1, method);
    report.metric("round." + method + ".ms_p50", median(rounds));
    report.metric("round." + method + ".ms_tail", tail(rounds));
    report.metric("round." + method + ".n", static_cast<double>(rounds.size()));
  }
  report.metric("algo.make_ms_p50", median(log.ms("make_algorithm", 1)));
  report.metric("eval.ms_p50", median(log.ms("evaluate", 1)));

  const double jobs = d("round_graph.jobs");
  const double waves = d("round_graph.waves");
  const double speculated = d("round_graph.speculated");
  report.metric("round_graph.jobs", jobs);
  report.metric("round_graph.jobs_per_wave", waves > 0 ? jobs / waves : 0);
  report.metric("round_graph.speculated", speculated);
  report.metric("round_graph.reruns", d("round_graph.reruns"));
  report.metric("round_graph.spec_accept_ratio",
                speculated > 0 ? d("round_graph.accepted") / speculated : 0);

  const double hits = d("build_cache.hits");
  const double misses = d("build_cache.misses");
  report.metric("build.count", misses);
  report.metric("build.ms_p50", median(build_ms));
  report.metric("build_cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);

  // Dispatch numbers come from the untraced twins: the traced pass also
  // ships every worker span on the wire, which is tracing cost.
  double cells = 0;
  double worker_busy_s = 0;
  double cell_s = 0;
  for (const auto& twin : twins) {
    cells += static_cast<double>(twin.cells);
    worker_busy_s += twin.wall_s * kTcpWorkers;
    cell_s += twin.cell_seconds;
  }
  report.metric("dispatch.overhead_ms_per_cell", w.tcp ? (worker_busy_s - cell_s) / cells * 1e3 : 0);
  report.metric("dispatch.affinity_ratio",
                w.tcp ? sum_delta(twins, "dispatch.affinity_hits") / cells : 0);
  report.metric("dispatch.retries", sum_delta(twins, "dispatch.retries"));
  report.metric("dispatch.timeouts", sum_delta(twins, "dispatch.timeouts"));

  report.metric("trace.overhead_ratio", trace_overhead(w, log));
  report.metric("trace.twin_ratio", twin_ratio(w, log, production));
  report.metric("trace.dropped_events", static_cast<double>(dropped));
}

int run_benchmark(const Flags& flags) {
  const std::uint64_t seed = std::stoull(flags.get("seed", "1"));
  const std::uint64_t variant = seed % kVariants;
  const double seconds = flags.get_double("seconds", 40);
  const bool traced = flags.get_long("trace", 0) != 0;
  Workload w = make_workload(flags.get("workload", ""), variant);
  ParallelExecutor::global().set_thread_count(w.threads);
  Runner runner(w, load_golden(flags.get("golden", ""), variant), kTcpWorkerThreads);

  // Set-up: GEMM runtime selection, the tcp workers up to their hello, and
  // one exp::build_for per distinct build.  Repeated a fixed number of times
  // before the first cell and again between timed cells, so the reps sample
  // the whole run, each followed by the host-speed probe.
  const Clock::time_point gemm_start = Clock::now();
  gemm_runtime_info();
  const double gemm_init_s = seconds_since(gemm_start);
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> probe_s;
  const std::vector<exp::ExperimentSpec> builds = distinct_builds(w.specs);
  const auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<WorkerFleet> fleet;
    if (w.tcp) fleet = std::make_unique<WorkerFleet>(kTcpWorkers, kTcpWorkerThreads);
    for (const auto& spec : builds) {
      const Clock::time_point build_start = Clock::now();
      exp::build_for(spec);
      build_ms.push_back(seconds_since(build_start) * 1e3);
    }
    setup_s.push_back(gemm_init_s + seconds_since(start));
    for (int probe = 0; w.scaled && probe < kProbesPerSetup; ++probe) {
      probe_s.push_back(probe_seconds());
    }
  };
  for (std::size_t rep = 0; rep < w.setup_reps; ++rep) set_up();
  if (w.tcp) runner.start_workers();
  runner.warm_up();

  Report report;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Counts> counts;
  if (!traced) {
    // Whole passes only, so every pass measures the same mix of cells, and
    // a pass count fixed by --seconds rather than by the clock.  Only a host
    // slowed to a third of its reference speed cuts the run short.
    const std::size_t pass_count =
        std::max(kMinPasses, static_cast<std::size_t>(std::lround(seconds / w.nominal_pass_s)));
    std::vector<PassResult> passes;
    std::size_t units = 0;
    const auto between = [&] {
      if (++units % w.setup_every == 0) set_up();
    };
    const Clock::time_point start = Clock::now();
    while (passes.size() < pass_count &&
           (passes.size() < kMinPasses || seconds_since(start) < 3 * seconds)) {
      passes.push_back(runner.production_pass(between));
      attempted += passes.back().cells;
      failed += passes.back().failed;
      counts.push_back(passes.back().counts);
    }
    runner.stop_workers();  // reaped, so RUSAGE_CHILDREN covers them
    rusage self{}, children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    // Medians over the run, scaled to the reference host's speed by the
    // probe's median: the neighbours' load slows compute in the program and
    // in the probe alike, so their ratio holds still where either drifts.
    const double host_slowdown = w.scaled ? median(probe_s) / kProbeReferenceS : 1.0;
    std::vector<double> walls;
    std::vector<double> cpus;
    for (const auto& pass : passes) {
      walls.push_back(pass.wall_s);
      cpus.push_back(pass.cpu_s);
    }
    const double cells = static_cast<double>(w.specs.size());
    report.metric("cells_per_s", cells / median(walls) * host_slowdown);
    report.metric("setup_s", median(setup_s) / host_slowdown);
    report.metric("cpu_s_per_cell", median(cpus) / cells / host_slowdown);
    report.metric("peak_rss_mb",
                  static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0);
  } else {
    // A production pass, then the untraced twin and the traced pass
    // alternate; dispatch-tcp's passes are short, so it runs several pairs.
    // There the twin is itself a production pass.
    SpanLog log;
    const PassResult production = runner.production_pass();
    std::vector<PassResult> twins;
    std::vector<PassResult> traced_passes;
    const std::uint64_t dropped_before = trace::dropped_event_count();
    for (int pair = 0; pair < (w.tcp ? kTcpTracePairs : 1); ++pair) {
      log.lane = 0;
      twins.push_back(runner.layered_pass(log));
      log.lane = 1;
      trace::set_enabled(true);
      traced_passes.push_back(runner.layered_pass(log));
      trace::set_enabled(false);
    }
    const std::uint64_t dropped = trace::dropped_event_count() - dropped_before;
    runner.stop_workers();
    std::vector<PassResult> productions = {production};
    for (const auto* passes : {&productions, &twins, &traced_passes}) {
      for (const auto& pass : *passes) {
        attempted += pass.cells;
        failed += pass.failed;
        counts.push_back(pass.counts);
      }
    }
    per_layer_metrics(report, runner, log, production, twins, traced_passes.front(), build_ms,
                      dropped);
    if (flags.has("trace-out")) log.write_chrome_trace(flags.get("trace-out", ""));
  }
  report.counts(counts);
  std::ostringstream head;
  head << provenance(w, seed, variant) << ",\"host_slowdown\":"
       << json::fmt_double(w.scaled ? median(probe_s) / kProbeReferenceS : 1.0)
       << ",\"attempted\":" << attempted
       << ",\"failed\":" << failed;
  std::printf("%s\n", report.json(head.str()).c_str());
  return 0;
}

/// One pass of a variant through the production path at the given thread
/// count and backend, printed as golden-file lines.
int emit_golden(const Flags& flags) {
  const std::uint64_t variant = static_cast<std::uint64_t>(flags.get_long("variant", 0));
  Workload w = make_workload(flags.get("workload", ""), variant);
  const std::size_t threads = static_cast<std::size_t>(flags.get_long("threads", 2));
  const std::string backend = flags.get("backend", w.tcp ? "tcp" : "thread");
  if (backend != "thread" && backend != "tcp") {
    throw std::invalid_argument("--backend takes thread|tcp");
  }
  w.tcp = backend == "tcp";
  w.threads = w.tcp ? 1 : threads;
  ParallelExecutor::global().set_thread_count(w.threads);
  Runner runner(w, {}, threads);
  if (w.tcp) runner.start_workers();
  for (const auto& cell : runner.run_cells(w.specs, runner.hosts())) {
    std::printf("%llu\t%s\n", static_cast<unsigned long long>(variant),
                result_line(cell.spec, cell.result).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc - 1, argv + 1);
  try {
    if (flags.has("serve")) {
      // A worker must not outlive the harness that started it, even when
      // the harness itself is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() == 1) return 1;
      return exp::serve_main(flags.get("serve", ""));
    }
    if (flags.has("emit-golden")) return emit_golden(flags);
    return run_benchmark(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_harness: %s\n", e.what());
    return 1;
  }
}
