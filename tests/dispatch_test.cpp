// Tests for the process- and host-level grid dispatch subsystem: the
// ExperimentSpec JSON wire codec (exact round-trip across every grid axis),
// thread- vs process- vs tcp- vs serial-backend byte-identity, crash
// isolation (a worker killed mid-cell — child process or remote connection —
// is retried and the sweep survives), hung-worker deadlines (the per-cell
// timeout kills and retries under crash accounting), the coordinator and
// worker knobs handle_grid_flags resolves, --resume semantics, and the
// atomic / append-safe result sinks.
//
// This binary has a custom main: invoked with --serve it becomes a dispatch
// worker (a dispatcher with `spawn` set runs the running binary, i.e. this
// test, and the host tests start two of themselves on ephemeral ports),
// otherwise it runs the gtest suites.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <utility>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cache_outcomes.hpp"
#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "common/parallel.hpp"
#include "common/subprocess.hpp"
#include "common/trace.hpp"
#include "exp/dispatch.hpp"
#include "exp/driver.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn::exp {
namespace {

/// A grid whose cells run in well under a second: 6 devices, 2 rounds.
ExperimentGrid tiny_grid() {
  ExperimentGrid grid;
  grid.base().with_seed(11);
  grid.base().build.scale.devices = 6;
  grid.base().build.scale.train_samples_per_device = 20;
  grid.base().build.scale.test_samples = 60;
  grid.base().build.scale.rounds = 2;
  grid.base().build.mlp_hidden = {8};
  grid.base().opts.local_epochs = 1;
  grid.base().opts.batch_size = 10;
  grid.base().opts.clusters = 2;
  grid.base().target = 0.999f;
  return grid;
}

/// RAII env override (restores the previous value, or unsets); a null
/// `value` unsets the variable for the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

/// A resident `--serve` worker: this test binary self-exec'd on an ephemeral
/// loopback port, endpoint parsed back from its announce line.  Killed (and
/// reaped) on destruction.
class ServeWorker {
 public:
  explicit ServeWorker(std::vector<std::string> env = {})
      : proc_(std::vector<std::string>{current_executable_path(), "--serve",
                                       "127.0.0.1:0"},
              std::move(env)) {
    net::LineReader announce(proc_.stdout_fd());
    std::string line;
    FEDHISYN_CHECK_MSG(announce.read_line(&line, net::Deadline::after(30.0)) ==
                           net::LineReader::Status::kLine,
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
  Subprocess proc_;
  std::string endpoint_;
};

/// A loopback endpoint that only pretends to be a worker: it accepts one
/// connection and hands it to `serve` on a background thread.
class FakeEndpoint {
 public:
  explicit FakeEndpoint(std::function<void(int)> serve)
      : listen_fd_(net::tcp_listen("127.0.0.1", 0)),
        thread_([this, serve = std::move(serve)] {
          const int conn = net::tcp_accept(listen_fd_);
          if (conn < 0) return;
          serve(conn);
          ::close(conn);
        }) {}
  ~FakeEndpoint() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes an accept that never came
    thread_.join();
    ::close(listen_fd_);
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(net::local_port(listen_fd_));
  }

 private:
  int listen_fd_;
  std::thread thread_;
};

std::string hello_line(long revision) {
  return "{\"hello\":\"fedhisyn-worker\",\"proto\":" + std::to_string(revision) +
         "}\n";
}

/// Read (and discard) until the peer closes the connection.
void drain(int fd) {
  char buf[4096];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

/// Field `index` (0-based) of /proc/<pid>/stat, counted after the
/// parenthesised command name; empty when the process is gone.
std::string proc_stat_field(pid_t pid, int index) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return {};
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  for (int i = 0; i <= index && fields >> field; ++i) {
  }
  return field;
}

/// Processes whose parent is `parent` and whose command line has --serve.
std::vector<pid_t> serve_children_of(pid_t parent) {
  std::vector<pid_t> children;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const pid_t pid = static_cast<pid_t>(std::stol(name));
    if (proc_stat_field(pid, 1) != std::to_string(parent)) continue;
    std::ifstream in(entry.path() / "cmdline");
    const std::string cmdline((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    if (cmdline.find(std::string("--serve\0", 8)) != std::string::npos) {
      children.push_back(pid);
    }
  }
  return children;
}

/// True while `pid` runs; a zombie (dead, not yet reaped by whoever
/// inherited it) counts as gone.
bool process_alive(pid_t pid) {
  const std::string state = proc_stat_field(pid, 0);
  return !state.empty() && state != "Z";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_file(const std::string& path, const std::vector<std::string>& lines,
                bool trailing_newline = true) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << lines[i];
    if (i + 1 < lines.size() || trailing_newline) out << "\n";
  }
}

// ------------------------------------------------------------ wire codec --

TEST(SpecJson, RoundTripAcrossEveryGridAxis) {
  ExperimentGrid grid;
  grid.base().build.scale.devices = 9;
  grid.base().build.scale.rounds = 3;
  grid.base().build.mlp_hidden = {16, 8};
  grid.datasets({"mnist", "cifar100"})
      .participations({1.0, 0.1})
      .partitions({{true, 0.0}, {false, 0.3}})
      .methods({"FedAvg", "FedHiSyn"})
      .clusters({1, 5})
      .heterogeneity_ratios({2.0, 10.0})
      .seeds({11, 17});
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u * 2 * 2 * 2 * 2 * 2 * 2);
  for (const auto& spec : specs) {
    const std::string wire = spec.to_json();
    const ExperimentSpec back = ExperimentSpec::from_json(wire);
    EXPECT_EQ(back.to_json(), wire);
    EXPECT_EQ(back.to_key(), spec.to_key());
    EXPECT_EQ(back.build_key(), spec.build_key());
    EXPECT_EQ(back.label(), spec.label());
  }
}

TEST(SpecJson, RoundTripPreservesEveryOffDefaultKnob) {
  ExperimentSpec spec;
  spec.with_seed(12345);
  spec.build.dataset = "emnist";
  spec.build.scale = {33, 77, 123, 19};
  spec.build.partition = {false, 0.61803398874989484};  // needs %.17g exactness
  spec.build.fleet_kind = core::FleetKind::kHomogeneous;
  spec.build.fleet_ratio_h = 3.5;
  spec.build.use_cnn = true;
  spec.build.mlp_hidden = {};
  spec.method = "SCAFFOLD";
  spec.opts.lr = 0.123456789f;
  spec.opts.batch_size = 7;
  spec.opts.local_epochs = 3;
  spec.opts.participation = 1.0 / 3.0;
  spec.opts.clusters = 4;
  spec.opts.aggregation = core::AggregationRule::kTimeWeighted;
  spec.opts.ring_order = sim::RingOrder::kLargeToSmall;
  spec.opts.direct_use = false;
  spec.opts.prox_mu = 0.007f;
  spec.opts.momentum = 0.9f;
  spec.opts.async_alpha = 0.125f;
  spec.target = 0.87654321f;
  spec.eval_every = 4;

  const ExperimentSpec back = ExperimentSpec::from_json(spec.to_json());
  EXPECT_EQ(back.to_json(), spec.to_json());
  EXPECT_EQ(back.to_key(), spec.to_key());
  EXPECT_EQ(back.build.partition.beta, spec.build.partition.beta);  // bit-exact
  EXPECT_EQ(back.opts.lr, spec.opts.lr);
  EXPECT_EQ(back.opts.participation, spec.opts.participation);
  EXPECT_EQ(back.build.fleet_kind, core::FleetKind::kHomogeneous);
  EXPECT_FALSE(back.opts.direct_use);
  EXPECT_TRUE(back.build.mlp_hidden.empty());
}

TEST(SpecJson, MissingAndUnknownFieldsAreRejected) {
  EXPECT_THROW(ExperimentSpec::from_json("{}"), CheckError);
  EXPECT_THROW(ExperimentSpec::from_json("not json"), CheckError);
  ExperimentSpec spec;
  std::string wire = spec.to_json();
  wire.insert(wire.size() - 1, ",\"from_the_future\":1");
  EXPECT_THROW(ExperimentSpec::from_json(wire), CheckError);
}

// The speculation knob left the wire at revision 3: an older coordinator's
// spec still carrying it is an unknown field, not a silently dropped one.
TEST(SpecJson, RetiredSpeculateFieldIsRejected) {
  std::string wire = ExperimentSpec().to_json();
  wire.insert(wire.size() - 1, ",\"speculate\":true");
  EXPECT_THROW(ExperimentSpec::from_json(wire), CheckError);
}

// -------------------------------------------------------------- dispatch --

TEST(Dispatch, ProcessMatchesThreadAndSerialByteIdentical) {
  auto grid = tiny_grid();
  grid.datasets({"mnist"}).methods({"FedHiSyn", "FedAvg", "SCAFFOLD", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options serial_options;
  serial_options.jobs = 1;
  serial_options.backend = CellBackend::kThread;
  const auto serial = GridScheduler(serial_options).run(specs);

  GridScheduler::Options process_options;
  process_options.jobs = 2;
  process_options.backend = CellBackend::kProcess;
  const auto process = GridScheduler(process_options).run(specs);

  ASSERT_EQ(serial.size(), process.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Byte-level: the exact strings the --out sinks would emit.
    EXPECT_EQ(to_jsonl_line(serial[i]), to_jsonl_line(process[i])) << i;
    EXPECT_EQ(to_csv_row(serial[i]), to_csv_row(process[i])) << i;
    // The wire codec ships the full trajectory bit-exactly.
    ASSERT_EQ(serial[i].result.history.size(), process[i].result.history.size()) << i;
    for (std::size_t r = 0; r < serial[i].result.history.size(); ++r) {
      EXPECT_EQ(serial[i].result.history[r].round, process[i].result.history[r].round);
      EXPECT_EQ(serial[i].result.history[r].accuracy,
                process[i].result.history[r].accuracy);
      EXPECT_EQ(serial[i].result.history[r].comm_rounds,
                process[i].result.history[r].comm_rounds);
      EXPECT_EQ(serial[i].result.history[r].d2d_transfers,
                process[i].result.history[r].d2d_transfers);
    }
  }
}

TEST(Dispatch, DisabledBuildCacheIsByteIdenticalToTheDefault) {
  // Two interleaved builds (seeds 11/17) across four cells: with the cache
  // disabled every cell rebuilds from scratch, with the default budget the
  // cache holds both builds warm — the output files must not be able to
  // tell the difference, in this process or in a worker.
  auto grid_a = tiny_grid();
  grid_a.methods({"FedAvg", "FedHiSyn"});
  auto grid_b = tiny_grid();
  grid_b.base().with_seed(17);
  grid_b.methods({"FedAvg", "FedHiSyn"});
  const auto cells_a = grid_a.expand();
  const auto cells_b = grid_b.expand();
  std::vector<ExperimentSpec> specs = {cells_a[0], cells_b[0], cells_a[1],
                                       cells_b[1]};

  for (const CellBackend backend : {CellBackend::kThread, CellBackend::kProcess}) {
    SCOPED_TRACE(backend == CellBackend::kThread ? "thread backend" : "process backend");
    GridScheduler::Options options;
    options.jobs = 1;
    options.backend = backend;
    GridScheduler::Options disabled = options;
    disabled.worker.build_cache_bytes = 0;

    // Both backends count in this process's registry: the thread backend's
    // cache directly, the process backend's through the folded-in deltas.
    auto before = counters::snapshot();
    const auto cold = GridScheduler(disabled).run(specs);
    const CacheOutcomes cold_counted = cache_outcomes_since(before);
    before = counters::snapshot();
    const auto warm = GridScheduler(options).run(specs);
    const CacheOutcomes warm_counted = cache_outcomes_since(before);

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(to_jsonl_line(cold[i]), to_jsonl_line(warm[i])) << i;
      EXPECT_EQ(to_csv_row(cold[i]), to_csv_row(warm[i])) << i;
    }
    // The counts confirm the two runs really exercised different paths: all
    // cold misses vs hits served warm.
    EXPECT_EQ(cold_counted.hits, 0u);
    EXPECT_EQ(cold_counted.misses, 4u);
    EXPECT_EQ(warm_counted.hits, 2u);
    EXPECT_EQ(warm_counted.misses, 2u);
  }
}

TEST(Dispatch, SpawnedWorkersTakeTheBudgetTheCoordinatorResolved) {
  // With FEDHISYN_BUILD_CACHE_MB unset, --build-cache-mb 0 can reach a
  // spawned worker only through the dispatcher's explicit overrides.  Three
  // methods share one build: a disabled cache misses on every cell, the
  // default would hit on two.
  ScopedEnv unset("FEDHISYN_BUILD_CACHE_MB", nullptr);
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedHiSyn", "FedAT"});
  const auto specs = grid.expand();
  const char* argv[] = {"--dispatch", "process", "--build-cache-mb", "0", "--quiet"};
  const GridDriverOptions options = handle_grid_flags(Flags::parse(5, argv));
  const auto cells = run_grid(specs, options);
  ASSERT_EQ(cells.size(), specs.size());
  // Each cell built, and its build was evicted at once.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CacheOutcomes outcome = cache_outcomes(cells[i].telemetry.counters);
    EXPECT_EQ(outcome.hits, 0u) << i;
    EXPECT_EQ(outcome.misses, 1u) << i;
    EXPECT_EQ(outcome.evictions, 1u) << i;
  }
}

TEST(Dispatch, CrashedWorkerIsRetriedAndTheSweepSurvives) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  // Workers abort the FedAvg cell on attempt 1; attempt 2 must heal it.
  ScopedEnv crash("FEDHISYN_TEST_CRASH", "FedAvg:1");
  GridScheduler::Options process_options;
  process_options.jobs = 2;
  process_options.backend = CellBackend::kProcess;
  const auto process = GridScheduler(process_options).run(specs);

  ASSERT_EQ(clean.size(), process.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(process[i])) << i;
  }
}

TEST(Dispatch, UnhealableCrashExhaustsRetriesAndThrows) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg"});
  ScopedEnv crash("FEDHISYN_TEST_CRASH", "FedAvg");  // crashes on every attempt
  GridScheduler::Options options;
  options.jobs = 1;
  options.backend = CellBackend::kProcess;
  options.max_attempts = 2;
  try {
    GridScheduler(options).run(grid.expand());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("FedAvg"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("giving up"), std::string::npos);
  }
}

TEST(Dispatch, DeterministicCellFailurePropagatesWithoutRetry) {
  const auto fails_in_worker = [](const std::string& method, const std::string& named) {
    auto grid = tiny_grid();
    grid.methods({method});
    GridScheduler::Options options;
    options.jobs = 1;
    options.backend = CellBackend::kProcess;
    try {
      GridScheduler(options).run(grid.expand());
      FAIL() << "expected CheckError naming " << named;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("failed in worker"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
    }
  };
  fails_in_worker("FedBogus", "FedBogus");
  // A malformed fault hook fails the cell instead of being read some other way.
  ScopedEnv typo("FEDHISYN_TEST_CRASH", "FedAvg:soon");
  fails_in_worker("FedAvg", "FEDHISYN_TEST_CRASH=FedAvg:soon: the attempt bound");
}

TEST(Dispatch, HungWorkerIsKilledAtTheDeadlineAndRetried) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  // Workers wedge (sleep well past the deadline) on the FedAvg cell's first
  // attempt; the dispatcher must SIGKILL at the deadline and heal on attempt
  // 2 under the same accounting as a crash.
  ScopedEnv hang("FEDHISYN_TEST_HANG", "FedAvg:1:600");
  TcpDispatcher::Options options;
  options.spawn = 2;
  options.cell_timeout_s = 1.0;
  const auto hung = TcpDispatcher(options).run(specs);

  ASSERT_EQ(clean.size(), hung.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(hung[i])) << i;
  }
}

TEST(Dispatch, HungWorkerExhaustsAttemptsWhenItNeverHeals) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  ScopedEnv hang("FEDHISYN_TEST_HANG", "FedAvg:600:600");  // every attempt wedges
  TcpDispatcher::Options options;
  options.spawn = 1;
  options.max_attempts = 2;
  options.cell_timeout_s = 0.3;
  try {
    TcpDispatcher(options).run(grid.expand());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("giving up"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
}

TEST(Dispatch, KilledCoordinatorLeavesNoServeChildBehind) {
  // A coordinator SIGKILLed mid-sweep cannot clean up; its --serve children
  // must still go (PR_SET_PDEATHSIG) instead of listening forever.
  const pid_t coordinator = ::fork();
  ASSERT_GE(coordinator, 0);
  if (coordinator == 0) {
    ::setenv("FEDHISYN_TEST_HANG", "FedAvg", /*overwrite=*/1);  // wedge for good
    auto grid = tiny_grid();
    grid.methods({"FedAvg"}).seeds({11, 17});
    TcpDispatcher::Options options;
    options.spawn = 2;
    try {
      TcpDispatcher(options).run(grid.expand());
    } catch (...) {
    }
    ::_exit(0);
  }
  std::vector<pid_t> children;
  const net::Deadline spawned = net::Deadline::after(30.0);
  while ((children = serve_children_of(coordinator)).size() < 2 && !spawned.expired()) {
    ::usleep(10 * 1000);
  }
  ::usleep(200 * 1000);  // let both cells reach their (hanging) workers
  ::kill(coordinator, SIGKILL);
  ::waitpid(coordinator, nullptr, 0);
  ASSERT_EQ(children.size(), 2u);
  const net::Deadline gone = net::Deadline::after(10.0);
  for (const pid_t child : children) {
    while (process_alive(child) && !gone.expired()) ::usleep(10 * 1000);
    EXPECT_FALSE(process_alive(child)) << "--serve child " << child << " outlived "
                                       << "its killed coordinator";
    // On failure, do not leave the orphan holding the test's output open.
    if (process_alive(child)) ::kill(child, SIGKILL);
  }
}

// --------------------------------------------------------------- tcp --

TEST(TcpDispatch, MatchesSerialByteIdenticalAcrossTwoServeWorkers) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "SCAFFOLD", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options serial_options;
  serial_options.jobs = 1;
  serial_options.backend = CellBackend::kThread;
  const auto serial = GridScheduler(serial_options).run(specs);

  ServeWorker worker_a;
  ServeWorker worker_b;
  GridScheduler::Options tcp_options;
  tcp_options.backend = CellBackend::kTcp;
  tcp_options.worker_hosts = {worker_a.endpoint(), worker_b.endpoint()};
  const auto tcp = GridScheduler(tcp_options).run(specs);

  ASSERT_EQ(serial.size(), tcp.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(serial[i]), to_jsonl_line(tcp[i])) << i;
    EXPECT_EQ(to_csv_row(serial[i]), to_csv_row(tcp[i])) << i;
  }
}

TEST(TcpDispatch, WorkerDroppingItsConnectionMidCellIsRetriedElsewhere) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  // Both remote workers abort the FedAvg cell on attempt 1 — the coordinator
  // sees the connection drop mid-cell, fails the reconnect (the process is
  // gone), retires the slot and reassigns the cell to the survivor, whose
  // attempt-2 request runs clean.
  ServeWorker volatile_a({"FEDHISYN_TEST_CRASH=FedAvg:1"});
  ServeWorker volatile_b({"FEDHISYN_TEST_CRASH=FedAvg:1"});
  TcpDispatcher::Options options;
  options.hosts = {volatile_a.endpoint(), volatile_b.endpoint()};
  const auto tcp = TcpDispatcher(options).run(specs);

  ASSERT_EQ(clean.size(), tcp.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(tcp[i])) << i;
  }
}

TEST(TcpDispatch, HungRemoteWorkerIsDisconnectedAtTheDeadlineAndRetried) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  // The finite 2s hang lets the wedged worker eventually wake, notice its
  // dead connection and accept fresh work; the 0.5s deadline fires far
  // earlier, so the cell reruns on the other worker first.
  ServeWorker sleepy_a({"FEDHISYN_TEST_HANG=FedAvg:1:2"});
  ServeWorker sleepy_b({"FEDHISYN_TEST_HANG=FedAvg:1:2"});
  TcpDispatcher::Options options;
  options.hosts = {sleepy_a.endpoint(), sleepy_b.endpoint()};
  options.cell_timeout_s = 0.5;
  const auto tcp = TcpDispatcher(options).run(specs);

  ASSERT_EQ(clean.size(), tcp.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(tcp[i])) << i;
  }
}

TEST(TcpDispatch, DeadHostAtStartupIsRetiredAndTheSweepCompletes) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  ServeWorker alive;
  TcpDispatcher::Options options;
  // Port 1 on loopback refuses instantly; the good worker carries the sweep.
  options.hosts = {alive.endpoint(), "127.0.0.1:1"};
  options.connect_timeout_s = 0.3;
  const auto tcp = TcpDispatcher(options).run(specs);

  ASSERT_EQ(clean.size(), tcp.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(tcp[i])) << i;
  }
}

TEST(TcpDispatch, StaleWireRevisionIsRejectedAtHello) {
  FakeEndpoint stale([](int fd) {
    net::write_all(fd, hello_line(kWireRevision - 1));
    drain(fd);
  });
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  TcpDispatcher::Options options;
  options.hosts = {stale.endpoint()};
  try {
    TcpDispatcher(options).run(grid.expand());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("speaks wire revision " + std::to_string(kWireRevision - 1) +
                        ", this coordinator speaks revision " +
                        std::to_string(kWireRevision)),
              std::string::npos)
        << what;
  }
}

TEST(TcpDispatch, WorkerStreamingAnEndlessLineHitsTheLineCap) {
  // A valid hello, then bytes that never end a line: the coordinator must
  // fail at the cap instead of buffering without bound.
  FakeEndpoint endless([](int fd) {
    net::write_all(fd, hello_line(kWireRevision));
    const std::string chunk(64 * 1024, 'x');
    while (net::write_all(fd, chunk)) {
    }
  });
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  TcpDispatcher::Options options;
  options.hosts = {endless.endpoint()};
  try {
    TcpDispatcher(options).run(grid.expand());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 0"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(net::kMaxLineBytes) + "-byte line cap"),
              std::string::npos)
        << what;
  }
}

TEST(TcpDispatch, NegativeCounterDeltaIsRejected) {
  // Telemetry counts are unsigned on both ends: a -1 on the wire would wrap
  // the coordinator's counter to 2^64-1 when added, so the cell must fail
  // loudly, naming the field.
  const auto rejects = [](const std::string& telemetry, const std::string& named) {
    FakeEndpoint liar([telemetry](int fd) {
      net::write_all(fd, hello_line(kWireRevision));
      net::LineReader reader(fd);
      std::string request;
      if (reader.read_line(&request) != net::LineReader::Status::kLine) return;
      net::write_all(fd, "{\"ok\":true,\"seconds\":0.5,\"telemetry\":" + telemetry +
                             ",\"algorithm\":\"FedAvg\",\"final\":0.5,\"best\":0.5,"
                             "\"comm\":null,\"rounds_to_target\":null,\"history\":[]}\n");
      drain(fd);
    });
    auto grid = tiny_grid();
    grid.methods({"FedAvg"});
    TcpDispatcher::Options options;
    options.hosts = {liar.endpoint()};
    try {
      TcpDispatcher(options).run(grid.expand());
      FAIL() << "expected CheckError naming " << named;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("telemetry " + named + " is negative: -1"), std::string::npos)
          << what;
    }
  };
  rejects(R"({"dropped":0,"spans":[],"counters":{"build_cache.hits":-1}})",
          "counter 'build_cache.hits'");
  rejects(R"({"dropped":-1,"spans":[],"counters":{}})", "'dropped'");
}

TEST(TcpDispatch, WorkerReportedDropsReachTheTraceCount) {
  // A worker whose span buffers overflowed says so in its telemetry block's
  // `dropped`; the coordinator counts that loss with its own, so the
  // written trace's otherData.dropped_events cannot read 0 over lost spans.
  FakeEndpoint lossy([](int fd) {
    net::write_all(fd, hello_line(kWireRevision));
    net::LineReader reader(fd);
    std::string request;
    if (reader.read_line(&request) != net::LineReader::Status::kLine) return;
    net::write_all(fd,
                   "{\"ok\":true,\"seconds\":0.5,\"telemetry\":{\"dropped\":5,"
                   "\"spans\":[[\"run_cell\",\"scheduler\",0,0,10]],\"counters\":{}},"
                   "\"algorithm\":\"FedAvg\",\"final\":0.5,\"best\":0.5,"
                   "\"comm\":null,\"rounds_to_target\":null,\"history\":[]}\n");
    drain(fd);
  });
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 1u);
  TcpDispatcher::Options options;
  options.hosts = {lossy.endpoint()};
  trace::set_enabled(true);
  const std::uint64_t before = trace::dropped_event_count();
  const auto cells = TcpDispatcher(options).run(specs);
  const std::uint64_t after = trace::dropped_event_count();
  trace::set_enabled(false);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].telemetry.dropped, 5u);
  EXPECT_EQ(after - before, 5u);
}

TEST(TcpDispatch, RequestLackingTraceGetsAnErrorReply) {
  // Every request field is required: a worker answers a request without
  // `trace` with ok:false instead of guessing.
  ServeWorker worker({"FEDHISYN_QUIET=1"});
  const net::HostPort host = net::parse_host_port(worker.endpoint(), "127.0.0.1");
  const net::Deadline deadline = net::Deadline::after(30.0);
  const int fd = net::tcp_connect(host.host, host.port, deadline);
  ASSERT_GE(fd, 0);
  net::LineReader reader(fd);
  std::string hello;
  ASSERT_EQ(reader.read_line(&hello, deadline), net::LineReader::Status::kLine);
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  ASSERT_TRUE(net::write_all(
      fd, "{\"attempt\":1,\"spec\":" + grid.expand()[0].to_json() + "}\n"));
  std::string reply;
  const net::LineReader::Status status = reader.read_line(&reply, deadline);
  ::close(fd);
  ASSERT_EQ(status, net::LineReader::Status::kLine);
  const json::Value doc = json::parse(reply);
  ASSERT_NE(doc.find("ok"), nullptr) << reply;
  EXPECT_FALSE(doc.find("ok")->as_bool()) << reply;
  ASSERT_NE(doc.find("error"), nullptr) << reply;
  EXPECT_NE(doc.find("error")->as_string().find("lacks 'trace'"), std::string::npos)
      << reply;
}

TEST(TcpDispatch, NoWorkersConfiguredCheckFails) {
  // Exactly one worker source: neither hosts nor spawn is as wrong as both.
  TcpDispatcher::Options neither;
  EXPECT_THROW(TcpDispatcher{neither}, CheckError);
  TcpDispatcher::Options both;
  both.hosts = {"127.0.0.1:1"};
  both.spawn = 1;
  EXPECT_THROW(TcpDispatcher{both}, CheckError);
  TcpDispatcher::Options no_tries;
  no_tries.spawn = 1;
  no_tries.max_attempts = 0;
  EXPECT_THROW(TcpDispatcher{no_tries}, CheckError);
}

// ------------------------------------------------------------ grid flags --

using EnvList = std::vector<std::pair<std::string, std::string>>;

/// handle_grid_flags on `args` (accepting the caller's `own_flags`), with
/// the five coordinator and three worker env vars unset except those `env`
/// sets.
GridDriverOptions resolve_grid_flags(const std::vector<std::string>& args,
                                     const EnvList& env,
                                     const std::vector<std::string>& own_flags = {}) {
  std::vector<std::unique_ptr<ScopedEnv>> scoped;
  for (const char* name :
       {"FEDHISYN_GRID_JOBS", "FEDHISYN_DISPATCH", "FEDHISYN_WORKERS",
        "FEDHISYN_WORKER_RETRIES", "FEDHISYN_CELL_TIMEOUT_S", "FEDHISYN_QUIET",
        "FEDHISYN_BUILD_CACHE_MB", "FEDHISYN_GEMM_KERNEL"}) {
    const char* value = nullptr;
    for (const auto& [key, text] : env) {
      if (key == name) value = text.c_str();
    }
    scoped.push_back(std::make_unique<ScopedEnv>(name, value));
  }
  std::vector<const char*> argv;
  for (const auto& arg : args) argv.push_back(arg.c_str());
  return handle_grid_flags(Flags::parse(static_cast<int>(argv.size()), argv.data()),
                           own_flags);
}

TEST(GridFlags, ResolveFlagThenEnvThenDefault) {
  struct Resolved {
    const char* name;
    std::vector<std::string> args;
    EnvList env;
    std::size_t jobs;
    CellBackend backend;
    std::vector<std::string> hosts;
    int max_attempts;
    double cell_timeout_s;
  };
  const CellBackend thread = CellBackend::kThread;
  const std::vector<Resolved> resolved = {
      {"defaults", {}, {}, 1, thread, {}, 3, 0.0},
      {"jobs from env",
       {"--dispatch", "process"},
       {{"FEDHISYN_GRID_JOBS", "3"}},
       3, CellBackend::kProcess, {}, 3, 0.0},
      {"jobs flag beats env",
       {"--grid-jobs", "2", "--dispatch", "process"},
       {{"FEDHISYN_GRID_JOBS", "3"}},
       2, CellBackend::kProcess, {}, 3, 0.0},
      {"backend from env", {}, {{"FEDHISYN_DISPATCH", "process"}}, 1,
       CellBackend::kProcess, {}, 3, 0.0},
      {"backend flag beats env",
       {"--dispatch", "thread"},
       {{"FEDHISYN_DISPATCH", "process"}},
       1, thread, {}, 3, 0.0},
      {"workers from env, spaces after commas stripped",
       {},
       {{"FEDHISYN_DISPATCH", "tcp"}, {"FEDHISYN_WORKERS", "hostA:7800, hostB:7801"}},
       1, CellBackend::kTcp, {"hostA:7800", "hostB:7801"}, 3, 0.0},
      {"workers flag beats env",
       {"--dispatch", "tcp", "--workers", "hostC:7802"},
       {{"FEDHISYN_WORKERS", "hostA:7800"}},
       1, CellBackend::kTcp, {"hostC:7802"}, 3, 0.0},
      {"workers env ignored off tcp", {}, {{"FEDHISYN_WORKERS", "hostA:7800"}}, 1,
       thread, {}, 3, 0.0},
      {"retries from env", {}, {{"FEDHISYN_WORKER_RETRIES", "5"}}, 1, thread, {}, 6,
       0.0},
      {"negative retries keep the default", {}, {{"FEDHISYN_WORKER_RETRIES", "-1"}}, 1,
       thread, {}, 3, 0.0},
      {"timeout from env", {}, {{"FEDHISYN_CELL_TIMEOUT_S", "2.5"}}, 1, thread, {}, 3,
       2.5},
      {"non-positive timeout is off", {}, {{"FEDHISYN_CELL_TIMEOUT_S", "-3"}}, 1, thread,
       {}, 3, 0.0},
  };
  for (const Resolved& c : resolved) {
    SCOPED_TRACE(c.name);
    const GridScheduler::Options options = resolve_grid_flags(c.args, c.env).scheduler;
    EXPECT_EQ(options.jobs, c.jobs);
    EXPECT_EQ(options.backend, c.backend);
    EXPECT_EQ(options.worker_hosts, c.hosts);
    EXPECT_EQ(options.max_attempts, c.max_attempts);
    EXPECT_EQ(options.cell_timeout_s, c.cell_timeout_s);
  }

  // The worker knobs: quiet, the cache budget, and the GEMM kernel the
  // process selected.
  struct Worker {
    const char* name;
    std::vector<std::string> args;
    EnvList env;
    bool quiet;
    std::size_t cache_bytes;
    std::string gemm;
  };
  const std::size_t fallback = BuildCache::default_budget_bytes();
  const std::string automatic = gemm_supported_variants().front();
  const std::vector<Worker> workers = {
      {"worker defaults", {}, {}, false, fallback, automatic},
      {"quiet flag", {"--quiet"}, {}, true, fallback, automatic},
      {"quiet from env", {}, {{"FEDHISYN_QUIET", "1"}}, true, fallback, automatic},
      {"quiet flag beats env", {"--quiet"}, {{"FEDHISYN_QUIET", "off"}}, true, fallback,
       automatic},
      {"quiet env off", {}, {{"FEDHISYN_QUIET", "off"}}, false, fallback, automatic},
      {"budget from env", {}, {{"FEDHISYN_BUILD_CACHE_MB", "1.5"}}, false,
       std::size_t{3} << 19, automatic},
      {"budget flag beats env",
       {"--build-cache-mb", "0"},
       {{"FEDHISYN_BUILD_CACHE_MB", "1.5"}},
       false, 0, automatic},
      {"budget with the process backend", {"--dispatch", "process", "--build-cache-mb", "0"},
       {}, false, 0, automatic},
      {"kernel from env", {}, {{"FEDHISYN_GEMM_KERNEL", "generic"}}, false, fallback,
       "generic"},
      {"kernel flag beats env",
       {"--gemm-kernel", "generic"},
       {{"FEDHISYN_GEMM_KERNEL", "bogus"}},
       false, fallback, "generic"},
      {"kernel back to auto", {}, {}, false, fallback, automatic},
  };
  for (const Worker& c : workers) {
    SCOPED_TRACE(c.name);
    const WorkerConfig worker = resolve_grid_flags(c.args, c.env).scheduler.worker;
    EXPECT_EQ(worker.quiet, c.quiet);
    EXPECT_EQ(worker.build_cache_bytes, c.cache_bytes);
    EXPECT_EQ(gemm_runtime_info().variant, c.gemm);
  }

  struct Rejected {
    const char* name;
    std::vector<std::string> args;
    EnvList env;
  };
  const std::vector<Rejected> rejected = {
      {"non-numeric --grid-jobs", {"--grid-jobs", "two"}, {}},
      {"zero --grid-jobs", {"--grid-jobs", "0"}, {}},
      {"non-numeric jobs env", {}, {{"FEDHISYN_GRID_JOBS", "two"}}},
      {"negative jobs env", {}, {{"FEDHISYN_GRID_JOBS", "-2"}}},
      {"--grid-jobs 2 with the default backend", {"--grid-jobs", "2"}, {}},
      {"jobs env 2 with the default backend", {}, {{"FEDHISYN_GRID_JOBS", "2"}}},
      {"--grid-jobs 2 with tcp",
       {"--grid-jobs", "2", "--dispatch", "tcp", "--workers", "hostA:7800"},
       {}},
      {"unknown backend", {"--dispatch", "gpu"}, {}},
      {"unknown backend env", {}, {{"FEDHISYN_DISPATCH", "gpu"}}},
      {"tcp flag without endpoints", {"--dispatch", "tcp"}, {}},
      {"tcp env without endpoints", {}, {{"FEDHISYN_DISPATCH", "tcp"}}},
      {"malformed endpoint", {"--dispatch", "tcp", "--workers", "hostA:port"}, {}},
      {"malformed endpoint env",
       {},
       {{"FEDHISYN_DISPATCH", "tcp"}, {"FEDHISYN_WORKERS", "hostA:7800,hostB:99999"}}},
      {"--workers off tcp", {"--dispatch", "process", "--workers", "hostA:7800"}, {}},
      {"--workers with the default backend", {"--workers", "hostA:7800"}, {}},
      {"non-numeric retries", {}, {{"FEDHISYN_WORKER_RETRIES", "lots"}}},
      {"non-numeric timeout", {}, {{"FEDHISYN_CELL_TIMEOUT_S", "soon"}}},
      {"unbounded timeout", {}, {{"FEDHISYN_CELL_TIMEOUT_S", "inf"}}},
      {"negative budget", {"--build-cache-mb", "-1"}, {}},
      {"garbage budget env", {}, {{"FEDHISYN_BUILD_CACHE_MB", "garbage"}}},
      {"infinite budget", {"--build-cache-mb", "inf"}, {}},
      {"infinite budget env", {}, {{"FEDHISYN_BUILD_CACHE_MB", "inf"}}},
      {"budget past size_t", {"--build-cache-mb", "1e30"}, {}},
      {"budget past size_t env", {}, {{"FEDHISYN_BUILD_CACHE_MB", "1e30"}}},
      {"NaN budget", {"--build-cache-mb", "nan"}, {}},
      {"NaN budget env", {}, {{"FEDHISYN_BUILD_CACHE_MB", "nan"}}},
      {"unknown kernel", {"--gemm-kernel", "bogus"}, {}},
      {"unknown kernel env", {}, {{"FEDHISYN_GEMM_KERNEL", "bogus"}}},
      {"kernel tile pin", {"--gemm-kernel", "generic:4x8"}, {}},
      {"kernel tile pin env", {}, {{"FEDHISYN_GEMM_KERNEL", "avx2:6x16"}}},
      {"--gemm-kernel with tcp",
       {"--dispatch", "tcp", "--workers", "hostA:7800", "--gemm-kernel", "generic"},
       {}},
      {"--build-cache-mb with tcp",
       {"--dispatch", "tcp", "--workers", "hostA:7800", "--build-cache-mb", "0"},
       {}},
      {"non-numeric --threads", {"--threads", "abc"}, {}},
      {"zero --threads", {"--threads", "0"}, {}},
      {"negative --threads", {"--threads", "-3"}, {}},
      {"--threads past the pool cap",
       {"--threads", std::to_string(ParallelExecutor::kMaxThreads + 1)},
       {}},
  };
  // No row may resize the pool: the cap fires before a worker is touched.
  const std::size_t pool_before = ParallelExecutor::global().thread_count();
  for (const Rejected& c : rejected) {
    SCOPED_TRACE(c.name);
    EXPECT_THROW(resolve_grid_flags(c.args, c.env), CheckError);
    EXPECT_EQ(ParallelExecutor::global().thread_count(), pool_before);
  }
  // The tcp row selected "generic" before its backend check failed; leave
  // the process on the default kernel for the tests after this one.
  gemm_runtime_select("auto");
}

TEST(GridFlags, UnknownFlagsAreRejected) {
  // A flag nothing reads any more (the autotuner's cache went in an earlier
  // cleanup) fails instead of being silently ignored.
  EXPECT_THROW(resolve_grid_flags({"--gemm-tune-cache", "tune.json"}, {}), CheckError);
  // A grid-restriction flag is accepted only from a caller that lists it.
  EXPECT_THROW(resolve_grid_flags({"--dataset", "mnist"}, {}), CheckError);
  EXPECT_EQ(resolve_grid_flags({"--dataset", "mnist", "--grid-jobs", "2", "--dispatch",
                                "process"},
                               {}, {"dataset"})
                .scheduler.jobs,
            2u);
}

// ---------------------------------------------------------------- resume --

TEST(RunGrid, ResumeSkipsCompletedCellsAndReproducesTheFileByteExactly) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "FedAT"});
  const auto specs = grid.expand();
  const std::string full_path = "dispatch_test_full.jsonl";
  const std::string resume_path = "dispatch_test_resume.jsonl";

  GridDriverOptions full_options;
  full_options.out = full_path;
  full_options.scheduler.worker.quiet = true;
  const auto full = run_grid(specs, full_options);
  ASSERT_EQ(full.size(), specs.size());
  const auto full_lines = read_lines(full_path);
  ASSERT_EQ(full_lines.size(), specs.size());

  // Interrupted sweep: the first two cells finished, the third line was cut
  // mid-append (the scanner must skip it, not choke).
  write_file(resume_path,
             {full_lines[0], full_lines[1], full_lines[2].substr(0, 25)},
             /*trailing_newline=*/false);

  // The resumed run executes on the process backend with the two finished
  // methods booby-trapped: if --resume failed to skip them, their workers
  // would crash on every attempt and the run could not succeed.
  ScopedEnv crash("FEDHISYN_TEST_CRASH", "FedHiSyn");
  GridDriverOptions resume_options;
  resume_options.out = resume_path;
  resume_options.scheduler.worker.quiet = true;
  resume_options.resume = true;
  resume_options.scheduler.backend = CellBackend::kProcess;
  const auto resumed = run_grid(specs, resume_options);

  // Final file byte-identical to the uninterrupted sweep, results aligned.
  EXPECT_EQ(read_lines(resume_path), full_lines);
  ASSERT_EQ(resumed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(resumed[i].spec.to_key(), full[i].spec.to_key()) << i;
    EXPECT_EQ(resumed[i].result.table_cell(), full[i].result.table_cell()) << i;
  }
  // Resumed cells carry headline metrics but no trajectory.
  EXPECT_TRUE(resumed[0].result.history.empty());
  EXPECT_FALSE(resumed[2].result.history.empty());

  std::remove(full_path.c_str());
  std::remove(resume_path.c_str());
}

TEST(RunGrid, MisconfiguredTcpSweepLeavesAnExistingOutUnchanged) {
  // A tcp sweep with no endpoints must fail while its flags resolve — before
  // run_grid's fresh-sweep truncation could empty a previous results file.
  const std::string path = "dispatch_test_misconfigured.jsonl";
  write_file(path, {"{\"previous\":1}"});
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  const char* argv[] = {"--out", path.c_str()};
  {
    ScopedEnv dispatch("FEDHISYN_DISPATCH", "tcp");
    ScopedEnv workers("FEDHISYN_WORKERS", nullptr);
    EXPECT_THROW(run_grid(grid.expand(), handle_grid_flags(Flags::parse(2, argv))),
                 CheckError);
  }
  EXPECT_EQ(read_lines(path), std::vector<std::string>{"{\"previous\":1}"});
  std::remove(path.c_str());
}

TEST(RunGrid, ResumeRequiresAJsonlOut) {
  GridDriverOptions options;
  options.resume = true;
  EXPECT_THROW(run_grid({}, options), CheckError);
  options.out = "results.csv";
  EXPECT_THROW(run_grid({}, options), CheckError);
}

// ----------------------------------------------------------------- sinks --

TEST(Sinks, WriteResultsIsAtomicAndLeavesNoTempFile) {
  const std::string path = "dispatch_test_atomic.jsonl";
  write_file(path, {"stale content that must fully disappear"});
  CellResult cell;
  cell.spec.build.dataset = "mnist";
  write_results(path, {cell});
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], to_jsonl_line(cell));
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0) << "leftover tmp file";
  std::remove(path.c_str());
}

TEST(Sinks, ScanResultsSkipsMalformedAndTruncatedLines) {
  const std::string path = "dispatch_test_scan.jsonl";
  CellResult cell;
  cell.spec.build.dataset = "emnist";
  cell.result.final_accuracy = 0.75f;
  cell.result.comm_to_target = 12.5;
  cell.result.rounds_to_target = 9;
  write_file(path, {to_jsonl_line(cell), "", "{\"label\":\"trunc",
                    "not json at all"});
  const auto scanned = scan_results(path);
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_EQ(scanned[0].key, cell.spec.to_key());
  EXPECT_EQ(scanned[0].line, to_jsonl_line(cell));
  EXPECT_FLOAT_EQ(scanned[0].final_accuracy, 0.75f);
  ASSERT_TRUE(scanned[0].comm_to_target.has_value());
  EXPECT_DOUBLE_EQ(*scanned[0].comm_to_target, 12.5);
  ASSERT_TRUE(scanned[0].rounds_to_target.has_value());
  EXPECT_EQ(*scanned[0].rounds_to_target, 9);
  EXPECT_TRUE(scan_results("no_such_file.jsonl").empty());
  std::remove(path.c_str());
}

TEST(Sinks, ScanResultsWarnsOnMidFileCorruptionButNotOnATruncatedTail) {
  const std::string path = "dispatch_test_midfile.jsonl";
  CellResult first;
  first.spec.build.dataset = "mnist";
  CellResult second;
  second.spec.build.dataset = "emnist";

  // Truncated *tail*: the normal debris of an interrupted append — silent.
  write_file(path, {to_jsonl_line(first), "{\"label\":\"trunc"});
  testing::internal::CaptureStderr();
  EXPECT_EQ(scan_results(path).size(), 1u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Well-formed JSON from a foreign schema is not corruption: skipped, but
  // silently, even with good lines after it.
  write_file(path, {to_jsonl_line(first), "{\"other_tool\":true}",
                    to_jsonl_line(second)});
  testing::internal::CaptureStderr();
  EXPECT_EQ(scan_results(path).size(), 2u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Bad line *followed by* a well-formed one: mid-file corruption — loud.
  write_file(path, {to_jsonl_line(first), "{\"label\":\"trunc",
                    to_jsonl_line(second)});
  testing::internal::CaptureStderr();
  const auto scanned = scan_results(path);
  const std::string warning = testing::internal::GetCapturedStderr();
  ASSERT_EQ(scanned.size(), 2u);  // the good lines still parse
  EXPECT_EQ(scanned[1].key, second.spec.to_key());
  EXPECT_NE(warning.find("mid-file corruption"), std::string::npos) << warning;
  EXPECT_NE(warning.find("line 2"), std::string::npos) << warning;
  std::remove(path.c_str());
}

TEST(Sinks, TerminatePartialLineClosesAnInterruptedAppend) {
  const std::string path = "dispatch_test_partial.jsonl";
  write_file(path, {"{\"complete\":1}", "{\"trunc"}, /*trailing_newline=*/false);
  terminate_partial_line(path);
  // The partial line now ends in a newline: a fresh append cannot glue onto
  // it and produce a second unparseable line.
  append_result_line(path, "{\"fresh\":2}");
  EXPECT_EQ(read_lines(path), (std::vector<std::string>{"{\"complete\":1}",
                                                        "{\"trunc", "{\"fresh\":2}"}));
  // Idempotent on a well-formed file, no-op on a missing one.
  terminate_partial_line(path);
  EXPECT_EQ(read_lines(path).size(), 3u);
  terminate_partial_line("no_such_file.jsonl");
  EXPECT_NE(::access("no_such_file.jsonl", F_OK), 0);
  std::remove(path.c_str());
}

TEST(Sinks, AppendedLinesAccumulate) {
  const std::string path = "dispatch_test_append.jsonl";
  std::remove(path.c_str());
  append_result_line(path, "{\"a\":1}");
  append_result_line(path, "{\"b\":2}");
  EXPECT_EQ(read_lines(path), (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}"}));
  std::remove(path.c_str());
}

// ------------------------------------------------------------ subprocess --

TEST(Subprocess, CapturesStdoutWithStdinAtEofAndReportsExit) {
  // stdin is an empty pipe whose write end is closed: the cat returns at
  // once instead of waiting on whatever the parent's stdin is, and reads
  // nothing whatever the host's /dev/null holds.
  Subprocess child({"/bin/sh", "-c", "cat; printf hello"}, {});
  std::string out;
  char buf[64];
  ssize_t n;
  while ((n = ::read(child.stdout_fd(), buf, sizeof(buf))) > 0) out.append(buf, n);
  EXPECT_EQ(out, "hello");
  const ExitStatus status = child.wait();
  EXPECT_TRUE(status.clean());
  EXPECT_EQ(describe(status), "exit code 0");
}

TEST(Subprocess, DescribesNonZeroExitsAndSignals) {
  // What the dispatch loop reports when a spawned worker dies mid-cell.
  Subprocess exits({"/bin/sh", "-c", "exit 7"}, {});
  const ExitStatus status = exits.wait();
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 7);
  EXPECT_EQ(describe(status), "exit code 7");
  Subprocess killed({"/bin/sh", "-c", "kill -9 $$"}, {});
  EXPECT_EQ(describe(killed.wait()).rfind("killed by signal 9", 0), 0u);
}

TEST(Subprocess, EnvOverridesReachTheChild) {
  Subprocess child({"/bin/sh", "-c", "printf '%s' \"$FEDHISYN_DISPATCH_TEST\""},
                   {"FEDHISYN_DISPATCH_TEST=42"});
  std::string out;
  char buf[64];
  ssize_t n;
  while ((n = ::read(child.stdout_fd(), buf, sizeof(buf))) > 0) out.append(buf, n);
  EXPECT_EQ(out, "42");
  EXPECT_TRUE(child.wait().clean());
}

}  // namespace
}  // namespace fedhisyn::exp

int main(int argc, char** argv) {
  // Spawning dispatchers and the host tests run this binary with --serve:
  // become a dispatch worker instead of running the suites.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--serve" && i + 1 < argc) {
      return fedhisyn::exp::serve_main(argv[i + 1]);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
