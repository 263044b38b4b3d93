// Tests for the tracing & metrics plane (common/trace.hpp,
// common/counters.hpp): span nesting across pool threads, Chrome-trace JSON
// well-formedness (parsed back with common/json), collection-mode draining,
// kernels that never reach the pool (one level of parallelism),
// worker telemetry merged from a two-worker TCP sweep (per-host lanes +
// counter deltas), and the determinism contract — tracing off records
// nothing and tracing on never changes result bytes.
//
// This binary has a custom main like dispatch_test: with --serve it becomes
// a dispatch worker (the tcp test spawns two of itself on ephemeral ports).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/subprocess.hpp"
#include "common/trace.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "exp/dispatch.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "nn/models.hpp"
#include "nn/update.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

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

/// RAII trace enable: tests must never leak a recording flag into the next
/// suite (the zero-overhead assertions depend on tracing being off).
class ScopedTrace {
 public:
  ScopedTrace() { trace::set_enabled(true); }
  ~ScopedTrace() { trace::set_enabled(false); }
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

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ----------------------------------------------------------------- spans --

TEST(Trace, SpansNestAcrossPoolThreads) {
  ScopedTrace on;
  trace::collect_begin();  // discard any earlier suite's events, pin epoch
  {
    ParallelExecutor pool(4);
    ParallelExecutor::Bind bind(pool);
    trace::TraceSpan outer("outer", "test");
    pool.parallel_for(32, [](std::size_t i) {
      trace::TraceSpan inner("inner", "test");
      inner.arg("i", static_cast<std::int64_t>(i));
      // Long enough that the pool workers wake and claim indices: the test
      // asserts the spans landed on more than one thread lane.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  }
  std::uint64_t dropped = 0;
  const auto spans = trace::collect_end(1 << 20, &dropped);
  EXPECT_EQ(dropped, 0u);

  const trace::CollectedSpan* outer_span = nullptr;
  std::vector<const trace::CollectedSpan*> inner_spans;
  std::set<std::uint32_t> inner_tids;
  for (const auto& span : spans) {
    if (span.name == "outer") outer_span = &span;
    if (span.name == "inner") {
      inner_spans.push_back(&span);
      inner_tids.insert(span.tid);
    }
  }
  ASSERT_NE(outer_span, nullptr);
  ASSERT_EQ(inner_spans.size(), 32u);
  // The loop body ran on the caller *and* on pool workers.
  EXPECT_GT(inner_tids.size(), 1u);
  // Every inner span is contained in the outer span's interval, whichever
  // thread recorded it — one clock, one epoch.
  for (const auto* inner : inner_spans) {
    EXPECT_GE(inner->ts_us, outer_span->ts_us);
    EXPECT_LE(inner->ts_us + inner->dur_us,
              outer_span->ts_us + outer_span->dur_us);
  }
  // The pooled dispatch itself is instrumented (common/parallel.cpp).
  EXPECT_TRUE(std::any_of(spans.begin(), spans.end(), [](const auto& span) {
    return span.name == "parallel_for" && span.cat == "pool";
  }));
}

/// The spans `work` records, collected on a traced pool of `threads`
/// threads bound to the calling thread, which is outside any parallel
/// region.  Nothing may be dropped.
std::vector<trace::CollectedSpan> spans_of(const std::function<void()>& work,
                                           std::size_t threads = 4) {
  ScopedTrace on;
  ParallelExecutor pool(threads);
  ParallelExecutor::Bind bind(pool);
  trace::collect_begin();
  work();
  std::uint64_t dropped = 0;
  auto spans = trace::collect_end(1 << 20, &dropped);
  EXPECT_EQ(dropped, 0u);
  return spans;
}

std::size_t spans_in(const std::vector<trace::CollectedSpan>& spans, const std::string& cat) {
  return static_cast<std::size_t>(std::count_if(
      spans.begin(), spans.end(), [&](const auto& span) { return span.cat == cat; }));
}

TEST(Trace, KernelsNeverTouchThePool) {
  // One level of parallelism: the pool runs training jobs, never a
  // kernel's tiles.  With an idle pool bound and no enclosing parallel
  // loop, a wide GEMM, a paper-CNN training job and a large optimizer step
  // each run serially on the caller: no pooled dispatch ('pool' span).
  // The gemm.calls counter shows the GEMMs ran at all.
  counters::Counter& gemm_calls = counters::counter("gemm.calls");
  Rng rng(33);
  const auto random = [&rng](std::int64_t n) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (float& x : v) x = static_cast<float>(rng.normal());
    return v;
  };

  // The paper CNN's conv-forward im2col shape.
  const std::int64_t m = 64, k = 1152, n = 1024;
  const auto a = random(m * k);
  const auto b = random(k * n);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  const std::uint64_t calls_before = gemm_calls.get();
  const auto gemm_spans = spans_of([&] { gemm(a, b, c, m, k, n); });
  EXPECT_EQ(gemm_calls.get() - calls_before, 1u);
  EXPECT_EQ(spans_in(gemm_spans, "pool"), 0u);

  const nn::Network net = nn::make_cnn({3, 8, 8}, 10);
  auto weights = net.init_weights(rng);
  data::Dataset set;
  set.x = Tensor({16, 3, 8, 8});
  for (std::int64_t i = 0; i < set.x.numel(); ++i) {
    set.x.at(i) = static_cast<float>(rng.normal());
  }
  for (std::int32_t i = 0; i < 16; ++i) set.y.push_back(i % 10);
  set.n_classes = 10;
  std::vector<std::int64_t> indices(16);
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = static_cast<std::int64_t>(i);
  const data::Shard shard(&set, indices);
  const std::uint64_t train_calls_before = gemm_calls.get();
  const auto train_spans = spans_of([&] {
    core::train_local(net, weights, shard, /*epochs=*/1, /*batch_size=*/8, /*lr=*/0.05f,
                      core::UpdateKind::kSgd, {}, rng);
  });
  EXPECT_GT(gemm_calls.get(), train_calls_before);
  EXPECT_EQ(spans_in(train_spans, "pool"), 0u);

  auto step_weights = random(40000);
  const auto step_grad = random(40000);
  const auto step_spans =
      spans_of([&] { nn::sgd_step(step_weights, step_grad, /*lr=*/0.1f); });
  EXPECT_EQ(spans_in(step_spans, "pool"), 0u);
}

TEST(Trace, CollectEndCapsSpansAndRebasesTimestamps) {
  ScopedTrace on;
  trace::collect_begin();
  for (int i = 0; i < 10; ++i) {
    trace::TraceSpan span("capped", "test");
  }
  std::uint64_t dropped = 0;
  const auto spans = trace::collect_end(4, &dropped);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(dropped, 6u);
  for (const auto& span : spans) {
    EXPECT_EQ(span.name, "capped");
    EXPECT_GE(span.ts_us, 0);  // rebased to the collect_begin() epoch
  }
}

TEST(Trace, TracedSweepKeepsEveryCellAndJobSpan) {
  // Tracing records coarse work only, so a multi-cell sweep on a 2-thread
  // pool fits the per-thread buffers whole: one run_cell span per cell, one
  // train_job span per round-graph job, nothing dropped.
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "FedAT"});
  grid.base().build.scale.devices = 10;
  grid.base().build.scale.train_samples_per_device = 200;
  grid.base().build.scale.rounds = 10;
  grid.base().opts.local_epochs = 2;
  const auto specs = grid.expand();

  GridScheduler::Options options;
  options.backend = CellBackend::kThread;
  counters::Counter& jobs = counters::counter("round_graph.jobs");
  std::uint64_t jobs_run = 0;
  const auto spans = spans_of([&] {
    const std::uint64_t jobs_before = jobs.get();
    GridScheduler(options).run(specs);
    jobs_run = jobs.get() - jobs_before;
  }, /*threads=*/2);

  const auto named = [&spans](const std::string& name) {
    return static_cast<std::uint64_t>(std::count_if(
        spans.begin(), spans.end(), [&](const auto& span) { return span.name == name; }));
  };
  EXPECT_EQ(named("run_cell"), specs.size());
  EXPECT_GT(jobs_run, 0u);
  EXPECT_EQ(named("train_job"), jobs_run);
}

// ------------------------------------------------------------- json sink --

TEST(Trace, WrittenChromeTraceIsWellFormedAndCarriesSpansLanesAndDrops) {
  const std::string path = "trace_test_sink.json";
  ScopedTrace on;
  {
    trace::TraceSpan span("sink_span", "test");
    span.arg("x", 7);
    span.arg("y", 8);
  }
  trace::set_lane_name(9, "imaginary worker");
  trace::emit_foreign(9, 3, "remote_span", "remote", 10, 5);
  trace::write_chrome_trace(path);

  const json::Value doc = json::parse(slurp(path));
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, json::Value::Kind::kArray);

  bool saw_span = false, saw_lane = false, saw_foreign = false;
  for (const json::Value& event : events->items) {
    const std::string& name = event.find("name")->as_string();
    const std::string& ph = event.find("ph")->as_string();
    if (name == "sink_span" && ph == "X") {
      saw_span = true;
      EXPECT_GE(event.find("dur")->as_long(), 0);
      EXPECT_EQ(event.find("pid")->as_long(), 0);  // native lane
      const json::Value* args = event.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->find("x")->as_long(), 7);
      EXPECT_EQ(args->find("y")->as_long(), 8);
    }
    if (name == "process_name" && ph == "M" && event.find("pid")->as_long() == 9) {
      saw_lane = true;
      EXPECT_EQ(event.find("args")->find("name")->as_string(),
                "imaginary worker");
    }
    if (name == "remote_span") {
      saw_foreign = true;
      EXPECT_EQ(event.find("pid")->as_long(), 9);
      EXPECT_EQ(event.find("tid")->as_long(), 3);
      EXPECT_EQ(event.find("ts")->as_long(), 10);
      EXPECT_EQ(event.find("dur")->as_long(), 5);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_lane);
  EXPECT_TRUE(saw_foreign);
  // The loss count the file reports is the process's.
  const json::Value* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(other->find("dropped_events")->as_long()),
            trace::dropped_event_count());
  std::remove(path.c_str());
}

// -------------------------------------------------------------- counters --

TEST(Counters, DeltaKeepsOnlyPositiveIncrements) {
  counters::counter("trace_test.stays").add(5);
  const auto before = counters::snapshot();
  counters::counter("trace_test.grows").add(3);
  counters::counter("trace_test.fresh").add(2);
  const auto delta = counters::delta(before, counters::snapshot());
  std::uint64_t grows = 0, fresh = 0;
  bool stays_present = false;
  for (const auto& [name, value] : delta) {
    if (name == "trace_test.grows") grows = value;
    if (name == "trace_test.fresh") fresh = value;
    if (name == "trace_test.stays") stays_present = true;
  }
  EXPECT_EQ(grows, 3u);
  EXPECT_EQ(fresh, 2u);
  EXPECT_FALSE(stays_present);  // unchanged counters are not shipped
}

TEST(Counters, HistogramTracksCountSumBoundsAndQuantiles) {
  counters::Histogram& h = counters::histogram("trace_test.latency_us");
  const std::uint64_t base_count = h.count();
  for (std::uint64_t sample : {3u, 5u, 7u, 100u}) h.record(sample);
  EXPECT_EQ(h.count(), base_count + 4);
  EXPECT_GE(h.sum(), 115u);
  EXPECT_LE(h.min(), 3u);
  EXPECT_GE(h.max(), 100u);
  // Power-of-two buckets: quantiles are bucket upper bounds, so p50 of
  // {3,5,7,100} lands in [4,8) -> 7, and p100 covers 100 -> [64,128) -> 127.
  EXPECT_GE(h.quantile(1.0), 100u);
  EXPECT_GT(h.quantile(0.5), 0u);
}

TEST(Counters, WriteMetricsEmitsAParsableSortedDocument) {
  const std::string path = "trace_test_metrics.json";
  counters::counter("trace_test.metric").add(1);
  counters::histogram("trace_test.histo_us").record(12);
  counters::write_metrics(path);
  const json::Value doc = json::parse(slurp(path));
  EXPECT_EQ(doc.find("schema")->as_string(), "fedhisyn-metrics/1");
  const json::Value* all = doc.find("counters");
  ASSERT_NE(all, nullptr);
  EXPECT_GE(all->find("trace_test.metric")->as_long(), 1);
  // Sorted by name: deterministic files for identical work.
  for (std::size_t i = 1; i < all->members.size(); ++i) {
    EXPECT_LT(all->members[i - 1].first, all->members[i].first);
  }
  const json::Value* histos = doc.find("histograms");
  ASSERT_NE(histos, nullptr);
  const json::Value* histo = histos->find("trace_test.histo_us");
  ASSERT_NE(histo, nullptr);
  EXPECT_GE(histo->find("count")->as_long(), 1);
  EXPECT_NE(histo->find("p95"), nullptr);
  std::remove(path.c_str());
}

// ------------------------------------------------------- tcp telemetry --

TEST(TcpTrace, TwoWorkerSweepMergesLanesAndCountersAndKeepsBytesIdentical) {
  const std::string path = "trace_test_tcp.json";
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "SCAFFOLD", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options serial_options;
  serial_options.jobs = 1;
  serial_options.backend = CellBackend::kThread;
  const auto serial = GridScheduler(serial_options).run(specs);

  // 2 threads in each worker so the pooled parallel_for dispatch (and its
  // spans) actually engage even on a 1-core runner.
  ServeWorker worker_a({"FEDHISYN_THREADS=2"});
  ServeWorker worker_b({"FEDHISYN_THREADS=2"});

  const std::uint64_t cells_before = counters::counter("dispatch.cells").get();
  const std::uint64_t jobs_before = counters::counter("round_graph.jobs").get();

  std::vector<CellResult> tcp;
  {
    ScopedTrace on;
    GridScheduler::Options tcp_options;
    tcp_options.backend = CellBackend::kTcp;
    tcp_options.worker_hosts = {worker_a.endpoint(), worker_b.endpoint()};
    tcp = GridScheduler(tcp_options).run(specs);
    trace::write_chrome_trace(path);
  }

  // Observability never touches result bytes: the traced tcp sweep's sink
  // lines match the untraced serial run exactly.
  ASSERT_EQ(serial.size(), tcp.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(serial[i]), to_jsonl_line(tcp[i])) << i;
    EXPECT_EQ(to_csv_row(serial[i]), to_csv_row(tcp[i])) << i;
  }

  // Every cell shipped a telemetry block, and traced cells shipped spans.
  for (const auto& cell : tcp) {
    EXPECT_FALSE(cell.telemetry.spans.empty());
    EXPECT_FALSE(cell.telemetry.counters.empty());
  }

  // The coordinator folded the workers' counter deltas into its own
  // registry: it dispatched 4 cells and ran zero training jobs itself, so
  // round_graph.jobs can only have grown through the merge.
  EXPECT_EQ(counters::counter("dispatch.cells").get() - cells_before, 4u);
  EXPECT_GT(counters::counter("round_graph.jobs").get(), jobs_before);

  // The written timeline has a named lane per worker and foreign spans on
  // both, covering all five instrumented layers.
  const json::Value doc = json::parse(slurp(path));
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<long long> worker_lanes;   // pids named "worker N (host:port)"
  std::set<long long> span_pids;      // pids carrying 'X' events
  std::set<std::string> span_cats;
  for (const json::Value& event : events->items) {
    const std::string& ph = event.find("ph")->as_string();
    const long long pid = event.find("pid")->as_long();
    if (ph == "M" && event.find("name")->as_string() == "process_name") {
      const std::string& lane = event.find("args")->find("name")->as_string();
      if (lane.find("(127.0.0.1:") != std::string::npos) worker_lanes.insert(pid);
    }
    if (ph == "X") {
      span_pids.insert(pid);
      span_cats.insert(event.find("cat")->as_string());
    }
  }
  EXPECT_GE(worker_lanes.size(), 2u);
  for (const long long lane : worker_lanes) {
    EXPECT_TRUE(span_pids.count(lane)) << "no spans on worker lane " << lane;
  }
  for (const char* cat : {"pool", "round_graph", "build_cache", "dispatch", "scheduler"}) {
    EXPECT_TRUE(span_cats.count(cat)) << "no '" << cat << "' spans in " << path;
  }
  std::remove(path.c_str());
}

// ----------------------------------------------------------- determinism --

TEST(Trace, DisabledPathRecordsNothingAndKeepsBytesIdentical) {
  ASSERT_FALSE(trace::enabled());
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg"});
  const auto specs = grid.expand();

  GridScheduler::Options options;
  options.backend = CellBackend::kThread;

  // Zero-overhead off path: a full sweep through every instrumented layer
  // records not a single event.
  const std::uint64_t recorded_before = trace::recorded_event_count();
  const auto untraced = GridScheduler(options).run(specs);
  EXPECT_EQ(trace::recorded_event_count(), recorded_before);

  std::vector<CellResult> traced;
  {
    ScopedTrace on;
    traced = GridScheduler(options).run(specs);
    EXPECT_GT(trace::recorded_event_count(), recorded_before);
  }

  ASSERT_EQ(untraced.size(), traced.size());
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(untraced[i]), to_jsonl_line(traced[i])) << i;
    EXPECT_EQ(to_csv_row(untraced[i]), to_csv_row(traced[i])) << i;
  }
}

}  // namespace
}  // namespace fedhisyn::exp

int main(int argc, char** argv) {
  // The tcp telemetry test spawns this binary with --serve (as would the
  // process dispatcher): become a dispatch worker instead of running the
  // suites.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--serve" && i + 1 < argc) {
      return fedhisyn::exp::serve_main(argv[i + 1]);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
