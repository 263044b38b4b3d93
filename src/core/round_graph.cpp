#include "core/round_graph.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <queue>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"
#include "common/trace.hpp"

namespace fedhisyn::core {

// ----------------------------------------------------------- RoundGraph ----

std::int64_t RoundGraph::add_seed(std::vector<float> value) {
  Node node;
  node.kind = NodeKind::kSeed;
  node.value = std::move(value);
  node.has_value = true;
  nodes_.push_back(std::move(node));
  return static_cast<std::int64_t>(nodes_.size() - 1);
}

std::int64_t RoundGraph::add_version() {
  Node node;
  node.kind = NodeKind::kVersion;
  nodes_.push_back(std::move(node));
  return static_cast<std::int64_t>(nodes_.size() - 1);
}

std::size_t RoundGraph::add_job(RoundJob job) {
  const auto valid = [&](std::int64_t node) {
    return node >= 0 && node < static_cast<std::int64_t>(nodes_.size());
  };
  FEDHISYN_CHECK_MSG(valid(job.input_a), "job input_a is not a node");
  FEDHISYN_CHECK_MSG(job.input_b == kNoRoundNode || valid(job.input_b),
                     "job input_b is not a node");
  const std::size_t index = jobs_.size();
  Node output;
  output.kind = NodeKind::kOutput;
  output.producer = static_cast<std::int64_t>(index);
  nodes_.push_back(std::move(output));
  jobs_.push_back(job);
  outputs_.push_back(static_cast<std::int64_t>(nodes_.size() - 1));
  publishes_.push_back(kNoRoundNode);
  return index;
}

std::int64_t RoundGraph::output_of(std::size_t job) const {
  FEDHISYN_CHECK(job < jobs_.size());
  return outputs_[job];
}

void RoundGraph::publish_on_commit(std::size_t job, std::int64_t node) {
  FEDHISYN_CHECK(job < jobs_.size());
  FEDHISYN_CHECK(node >= 0 && node < static_cast<std::int64_t>(nodes_.size()));
  Node& target = nodes_[static_cast<std::size_t>(node)];
  FEDHISYN_CHECK_MSG(target.kind == NodeKind::kVersion,
                     "only version nodes can be published by a commit");
  FEDHISYN_CHECK_MSG(target.producer == kNoRoundNode,
                     "version node already has a publishing commit");
  FEDHISYN_CHECK_MSG(publishes_[job] == kNoRoundNode,
                     "job already publishes a version node");
  target.producer = static_cast<std::int64_t>(job);
  publishes_[job] = node;
}

void RoundGraph::pin(std::int64_t node) {
  FEDHISYN_CHECK(node >= 0 && node < static_cast<std::int64_t>(nodes_.size()));
  nodes_[static_cast<std::size_t>(node)].pinned = true;
}

std::vector<float> RoundGraph::take(std::int64_t node) {
  FEDHISYN_CHECK(node >= 0 && node < static_cast<std::int64_t>(nodes_.size()));
  Node& source = nodes_[static_cast<std::size_t>(node)];
  FEDHISYN_CHECK_MSG(source.pinned, "take() requires a pinned node");
  FEDHISYN_CHECK_MSG(source.has_value, "pinned node was never given a value");
  source.has_value = false;
  return std::move(source.value);
}

// --------------------------------------------------- RoundGraphExecutor ----

namespace {

// Fold one run's stats into the process counter registry (counts only, no
// clocks) so --metrics-out totals jobs and DAG levels across the sweep.
void record_run_counters(const RoundGraphStats& stats) {
  static counters::Counter& jobs = counters::counter("round_graph.jobs");
  static counters::Counter& waves = counters::counter("round_graph.waves");
  jobs.add(stats.jobs);
  waves.add(stats.waves);
}

// Ready counts: per job, the inputs not yet available; per node, the live
// jobs that read it (CSR); and the jobs with nothing left to wait for, as a
// min-heap on job index.  Job order is event order and commit order, so
// popping the lowest index unblocks the commit chain — and the jobs waiting
// on the versions it publishes — earliest.
struct ReadyCounts {
  std::vector<std::size_t> pending;
  std::vector<std::size_t> first;  // node -> offset of its readers
  std::vector<std::size_t> readers;
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>> ready;

  /// `node`'s value is now available: count it off every reader.
  void publish(std::int64_t node) {
    const auto n = static_cast<std::size_t>(node);
    for (std::size_t k = first[n]; k < first[n + 1]; ++k) {
      if (--pending[readers[k]] == 0) ready.push(readers[k]);
    }
  }

  std::size_t pop() {
    const std::size_t job = ready.top();
    ready.pop();
    return job;
  }
};

// Makespan in job units of the executor's ready-order policy when every job
// costs one unit on `threads` workers: each step starts the lowest-index
// ready jobs; their outputs, and the versions the commit chain can then
// publish, are available at the next step.  Deterministic for a fixed
// (graph, thread count).
std::size_t unit_makespan(ReadyCounts counts, const std::vector<std::int64_t>& outputs,
                          const std::vector<std::int64_t>& publishes, bool has_commit,
                          std::size_t threads) {
  std::vector<std::uint8_t> finished(outputs.size(), 0);
  std::vector<std::size_t> step;
  std::size_t next_commit = 0;
  std::size_t slots = 0;
  while (!counts.ready.empty()) {
    ++slots;
    step.clear();
    while (step.size() < threads && !counts.ready.empty()) step.push_back(counts.pop());
    for (const auto j : step) {
      finished[j] = 1;
      counts.publish(outputs[j]);
    }
    if (!has_commit) continue;
    for (; next_commit < finished.size() && finished[next_commit]; ++next_commit) {
      if (publishes[next_commit] != kNoRoundNode) counts.publish(publishes[next_commit]);
    }
  }
  return slots;
}

}  // namespace

// One execution of a graph: the ready-count scheduler's shared state and the
// worker loop every pool thread runs.
//
// Concurrency discipline: the counts, reader refs, commit chain and failure
// live under mutex_.  Node values are handed over, not locked: a job writes
// its output before it reports under the lock that it finished, and its
// readers become ready only under that lock; a job moves an input only when
// the lock shows it is the input's last reader; and a reader drops its count
// only after its copy is done, so no value is freed while it is read.
class RoundGraphExecutor::Run {
 public:
  Run(RoundGraph& graph, const TrainFn& train, const CommitFn& commit,
      std::size_t threads);

  /// Train every live job on `pool` and run the commit chain; rethrows the
  /// first exception a job or commit threw, once no job is running.
  void execute(ParallelExecutor& pool) FEDHISYN_EXCLUDES(mutex_);

  RoundGraphStats stats;

 private:
  void worker() FEDHISYN_EXCLUDES(mutex_);
  std::vector<float> make_model(std::size_t j, bool move_a);
  void finish(std::size_t j) FEDHISYN_REQUIRES(mutex_);
  void run_commit(std::size_t c) FEDHISYN_REQUIRES(mutex_);
  void release(std::int64_t node) FEDHISYN_REQUIRES(mutex_);

  RoundGraph& graph_;
  const TrainFn& train_;
  const CommitFn& commit_;
  const bool has_commit_;

  Mutex mutex_;
  std::condition_variable_any cv_;
  ReadyCounts counts_ FEDHISYN_GUARDED_BY(mutex_);
  /// Readers of each node that have not finished: live job inputs, pins
  /// (one permanent count, so take() works after run()), and with a commit
  /// chain the commit's read of each output.  Zero frees the value.
  std::vector<std::size_t> refs_ FEDHISYN_GUARDED_BY(mutex_);
  std::vector<std::uint8_t> finished_ FEDHISYN_GUARDED_BY(mutex_);
  std::size_t next_commit_ FEDHISYN_GUARDED_BY(mutex_) = 0;
  std::size_t remaining_ FEDHISYN_GUARDED_BY(mutex_) = 0;  // live jobs not finished
  std::size_t waiting_ FEDHISYN_GUARDED_BY(mutex_) = 0;    // workers in cv_.wait
  std::exception_ptr error_ FEDHISYN_GUARDED_BY(mutex_);
};

RoundGraphExecutor::Run::Run(RoundGraph& graph, const TrainFn& train,
                             const CommitFn& commit, std::size_t threads)
    : graph_(graph), train_(train), commit_(commit), has_commit_(static_cast<bool>(commit)) {
  const auto& nodes = graph.nodes_;
  const auto& jobs = graph.jobs_;
  const std::size_t job_count = jobs.size();
  using NodeKind = RoundGraph::NodeKind;

  // ---- Liveness.  The commit chain observes every output, so with a
  // CommitFn all jobs are live.  Without one, a job matters only if its
  // output is pinned or feeds a live job (transitively) — overwritten ring
  // buffers orphan some outputs, and those trainings are unobservable.
  // Inputs always precede outputs in node order, so one reverse sweep
  // suffices.
  std::vector<std::uint8_t> live(job_count, 1);
  if (!has_commit_) {
    std::vector<std::uint8_t> needed(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].pinned) needed[i] = 1;
    }
    for (std::size_t j = job_count; j-- > 0;) {
      if (!needed[static_cast<std::size_t>(graph.outputs_[j])]) {
        live[j] = 0;
        continue;
      }
      needed[static_cast<std::size_t>(jobs[j].input_a)] = 1;
      if (jobs[j].input_b != kNoRoundNode) {
        needed[static_cast<std::size_t>(jobs[j].input_b)] = 1;
      }
    }
  }
  for (std::size_t j = 0; j < job_count; ++j) {
    if (live[j]) {
      ++stats.jobs;
    } else {
      ++stats.pruned;
    }
  }

  // ---- DAG levels, for stats.waves and for validation.  A seed is level 0;
  // a job is one level past its deepest input; a version sits at the deepest
  // level of any job up to its publishing commit.  Every input must precede
  // its reader, which is what guarantees the ready counts always progress.
  {
    std::vector<std::int64_t> job_level(job_count, 0);
    std::vector<std::int64_t> prefix_max(job_count, 0);
    std::int64_t running = 0;
    for (std::size_t j = 0; j < job_count; ++j) {
      if (live[j]) {
        const auto level_of = [&](std::int64_t id) -> std::int64_t {
          const auto& node = nodes[static_cast<std::size_t>(id)];
          switch (node.kind) {
            case NodeKind::kSeed:
              return 0;
            case NodeKind::kOutput:
              FEDHISYN_CHECK(node.producer >= 0 &&
                             node.producer < static_cast<std::int64_t>(j));
              return job_level[static_cast<std::size_t>(node.producer)];
            case NodeKind::kVersion:
              FEDHISYN_CHECK_MSG(has_commit_ && node.producer != kNoRoundNode,
                                 "job consumes a version no commit publishes");
              FEDHISYN_CHECK(node.producer < static_cast<std::int64_t>(j));
              return prefix_max[static_cast<std::size_t>(node.producer)];
          }
          return 0;
        };
        job_level[j] = 1 + level_of(jobs[j].input_a);
        if (jobs[j].input_b != kNoRoundNode) {
          job_level[j] = std::max(job_level[j], 1 + level_of(jobs[j].input_b));
        }
        running = std::max(running, job_level[j]);
      }
      prefix_max[j] = running;
    }
    stats.waves = static_cast<std::size_t>(running);
  }

  // ---- Reader refs and ready counts.  Seeds are available from the start;
  // outputs and versions each count once per reading input.
  refs_.assign(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].pinned) ++refs_[i];
  }
  counts_.pending.assign(job_count, 0);
  counts_.first.assign(nodes.size() + 1, 0);
  const auto for_each_input = [&](const auto& visit) {
    for (std::size_t j = 0; j < job_count; ++j) {
      if (!live[j]) continue;
      visit(j, jobs[j].input_a);
      if (jobs[j].input_b != kNoRoundNode) visit(j, jobs[j].input_b);
    }
  };
  for_each_input([&](std::size_t j, std::int64_t input) {
    const auto n = static_cast<std::size_t>(input);
    ++refs_[n];
    if (nodes[n].kind == NodeKind::kSeed) return;
    ++counts_.pending[j];
    ++counts_.first[n + 1];
  });
  for (std::size_t i = 0; i < nodes.size(); ++i) counts_.first[i + 1] += counts_.first[i];
  counts_.readers.resize(counts_.first.back());
  {
    std::vector<std::size_t> fill(counts_.first.begin(), counts_.first.end() - 1);
    for_each_input([&](std::size_t j, std::int64_t input) {
      const auto n = static_cast<std::size_t>(input);
      if (nodes[n].kind != NodeKind::kSeed) counts_.readers[fill[n]++] = j;
    });
  }
  for (std::size_t j = 0; j < job_count; ++j) {
    if (!live[j]) continue;
    if (has_commit_) ++refs_[static_cast<std::size_t>(graph.outputs_[j])];
    if (counts_.pending[j] == 0) counts_.ready.push(j);
  }
  finished_.assign(job_count, 0);
  remaining_ = stats.jobs;
  stats.dispatch_slots =
      unit_makespan(counts_, graph.outputs_, graph.publishes_, has_commit_, threads);
}

void RoundGraphExecutor::Run::execute(ParallelExecutor& pool) {
  // One worker loop per pool thread (never more than there are jobs).  A
  // single worker runs on the caller; either way a job's kernels run
  // serially on its worker's thread.
  const std::size_t workers = std::min(pool.thread_count(), stats.jobs);
  if (workers > 0) {
    pool.parallel_for(workers, [this](std::size_t) { worker(); });
  }
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    error = error_;
    FEDHISYN_CHECK(error || remaining_ == 0);
    FEDHISYN_CHECK(error || !has_commit_ || next_commit_ == finished_.size());
  }
  if (error) std::rethrow_exception(error);
}

void RoundGraphExecutor::Run::worker() {
  // Idle accounting without tracing: one clock read per job start, job end
  // and wait edge, flushed to the registry once per worker.
  static counters::Counter& busy_counter = counters::counter("round_graph.busy_us");
  static counters::Counter& wait_counter = counters::counter("round_graph.wait_us");
  std::int64_t busy_us = 0;
  std::int64_t wait_us = 0;
  for (;;) {
    std::size_t j = 0;
    bool move_a = false;
    {
      MutexLock lock(mutex_);
      while (!error_ && remaining_ > 0 && counts_.ready.empty()) {
        ++waiting_;
        const std::int64_t since = trace::now_us();
        cv_.wait(mutex_);
        wait_us += trace::now_us() - since;
        --waiting_;
      }
      if (error_ || remaining_ == 0) break;
      j = counts_.pop();
      move_a = refs_[static_cast<std::size_t>(graph_.jobs_[j].input_a)] == 1;
    }

    std::exception_ptr failure;
    const std::int64_t start = trace::now_us();
    try {
      trace::TraceSpan job_span("train_job", "round_graph");
      job_span.arg("job", static_cast<std::int64_t>(j));
      auto model = make_model(j, move_a);
      train_(graph_.jobs_[j], model);
      auto& out = graph_.nodes_[static_cast<std::size_t>(graph_.outputs_[j])];
      out.value = std::move(model);
      out.has_value = true;
    } catch (...) {
      failure = std::current_exception();
    }
    busy_us += trace::now_us() - start;

    MutexLock lock(mutex_);
    if (!failure && !error_) {
      try {
        finish(j);
      } catch (...) {
        failure = std::current_exception();
      }
    }
    // The first failure stops dispatch; the jobs still running finish, and
    // the dependents of the failed job are never started.
    if (failure && !error_) error_ = failure;
    // This worker takes the next ready job itself; sleepers are woken only
    // for the rest, or to exit.
    if (error_ || remaining_ == 0 || (waiting_ > 0 && counts_.ready.size() > 1)) {
      cv_.notify_all();
    }
  }
  busy_counter.add(static_cast<std::uint64_t>(busy_us));
  wait_counter.add(static_cast<std::uint64_t>(wait_us));
}

// Build job j's starting model: move input_a when this job is its last
// reader, copy it otherwise, then average in input_b (the Observation-1
// variant).
std::vector<float> RoundGraphExecutor::Run::make_model(std::size_t j, bool move_a) {
  const RoundJob& job = graph_.jobs_[j];
  auto& a = graph_.nodes_[static_cast<std::size_t>(job.input_a)];
  FEDHISYN_CHECK_MSG(a.has_value, "job input was never produced");
  std::vector<float> model;
  if (move_a) {
    model = std::move(a.value);
    a.has_value = false;
  } else {
    model = a.value;
  }
  if (job.input_b != kNoRoundNode) {
    const auto& b = graph_.nodes_[static_cast<std::size_t>(job.input_b)];
    FEDHISYN_CHECK_MSG(b.has_value, "job input was never produced");
    FEDHISYN_CHECK(b.value.size() == model.size());
    for (std::size_t i = 0; i < model.size(); ++i) {
      model[i] = 0.5f * (model[i] + b.value[i]);
    }
  }
  return model;
}

// Job j trained: retire its input reads, make its output available, and
// advance the commit chain strictly in job order over the finished prefix.
// Commits run here, under the lock, because the lock is what runs them one
// at a time and in order; they are cheap server mixes.
void RoundGraphExecutor::Run::finish(std::size_t j) {
  const RoundJob& job = graph_.jobs_[j];
  release(job.input_a);
  if (job.input_b != kNoRoundNode) release(job.input_b);
  counts_.publish(graph_.outputs_[j]);
  --remaining_;
  if (!has_commit_) return;
  finished_[j] = 1;
  while (next_commit_ < finished_.size() && finished_[next_commit_]) {
    run_commit(next_commit_);
    ++next_commit_;
  }
}

// Run commit c with the publish target resolved (nullptr when nothing ever
// reads the version it would publish), then make that version available.
void RoundGraphExecutor::Run::run_commit(std::size_t c) {
  const std::int64_t out = graph_.outputs_[c];
  const std::int64_t pub = graph_.publishes_[c];
  std::vector<float>* into = nullptr;
  if (pub != kNoRoundNode && refs_[static_cast<std::size_t>(pub)] > 0) {
    into = &graph_.nodes_[static_cast<std::size_t>(pub)].value;
  }
  commit_(c, graph_.nodes_[static_cast<std::size_t>(out)].value, into);
  if (into != nullptr) {
    graph_.nodes_[static_cast<std::size_t>(pub)].has_value = true;
    counts_.publish(pub);
  }
  release(out);
}

void RoundGraphExecutor::Run::release(std::int64_t node) {
  const auto n = static_cast<std::size_t>(node);
  FEDHISYN_CHECK(refs_[n] > 0);
  if (--refs_[n] == 0) {
    auto& entry = graph_.nodes_[n];
    entry.value = {};
    entry.has_value = false;
  }
}

RoundGraphStats RoundGraphExecutor::run(RoundGraph& graph, const TrainFn& train,
                                        const CommitFn& commit) const {
  auto& pool = ParallelExecutor::current();
  Run run(graph, train, commit, pool.thread_count());
  run.execute(pool);
  record_run_counters(run.stats);
  return run.stats;
}

}  // namespace fedhisyn::core
