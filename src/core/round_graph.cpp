#include "core/round_graph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/parallel.hpp"
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
// clocks) so --metrics-out totals jobs and waves across the sweep.
void record_run_counters(const RoundGraphStats& stats) {
  static counters::Counter& jobs = counters::counter("round_graph.jobs");
  static counters::Counter& waves = counters::counter("round_graph.waves");
  jobs.add(stats.jobs);
  waves.add(stats.waves);
}

}  // namespace

RoundGraphStats RoundGraphExecutor::run(RoundGraph& graph, const TrainFn& train,
                                        const CommitFn& commit) const {
  RoundGraphStats stats;
  auto& nodes = graph.nodes_;
  auto& jobs = graph.jobs_;
  const std::size_t job_count = jobs.size();
  const bool has_commit = static_cast<bool>(commit);
  using NodeKind = RoundGraph::NodeKind;

  // ---- Liveness.  The commit chain observes every output, so with a
  // CommitFn all jobs are live.  Without one, a job matters only if its
  // output is pinned or feeds a live job (transitively) — overwritten ring
  // buffers orphan some outputs, and those trainings are unobservable.
  // Inputs always precede outputs in node order, so one reverse sweep
  // suffices.
  std::vector<std::uint8_t> live(job_count, 1);
  if (!has_commit) {
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

  // ---- Reader counts: live job inputs, pins, and (with a commit chain) the
  // commit's read of each output.  A node's value is freed the moment its
  // count reaches zero; pinned nodes hold one permanent count so take()
  // works after run().
  std::vector<std::size_t> refs(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].pinned) ++refs[i];
  }
  for (std::size_t j = 0; j < job_count; ++j) {
    if (!live[j]) continue;
    ++refs[static_cast<std::size_t>(jobs[j].input_a)];
    if (jobs[j].input_b != kNoRoundNode) {
      ++refs[static_cast<std::size_t>(jobs[j].input_b)];
    }
    if (has_commit) ++refs[static_cast<std::size_t>(graph.outputs_[j])];
  }
  const auto release = [&](std::int64_t node) {
    auto& entry = nodes[static_cast<std::size_t>(node)];
    FEDHISYN_CHECK(refs[static_cast<std::size_t>(node)] > 0);
    if (--refs[static_cast<std::size_t>(node)] == 0) {
      entry.value = {};
      entry.has_value = false;
    }
  };

  // ---- Move economy: a node's value may be moved (instead of copied) into
  // the one consumer guaranteed to be its final reader.  Job outputs stay
  // copy-only when a commit chain reads them; pinned nodes must survive.
  // kNoRoundNode marks "copy only".
  std::vector<std::int64_t> mover(nodes.size(), kNoRoundNode);

  // ---- Wavefront levels.  A seed is available from the start; a job output
  // appears at the end of its wave; a version appears when its commit runs —
  // and commit j runs after the deepest wave any job i <= j trains in (the
  // chain advances maximally between waves), which is prefix_max[j].
  std::vector<std::int64_t> job_level(job_count, 0);
  std::int64_t max_level = 0;
  {
    std::vector<std::int64_t> prefix_max(job_count, 0);
    std::int64_t running = 0;
    for (std::size_t j = 0; j < job_count; ++j) {
      if (!live[j]) {
        prefix_max[j] = running;
        continue;
      }
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
            FEDHISYN_CHECK_MSG(node.producer != kNoRoundNode,
                               "job consumes a version no commit publishes");
            FEDHISYN_CHECK(node.producer < static_cast<std::int64_t>(j));
            return prefix_max[static_cast<std::size_t>(node.producer)];
        }
        return 0;
      };
      std::int64_t level = 1 + level_of(jobs[j].input_a);
      if (jobs[j].input_b != kNoRoundNode) {
        level = std::max(level, 1 + level_of(jobs[j].input_b));
      }
      job_level[j] = level;
      running = std::max(running, level);
      prefix_max[j] = running;
      max_level = std::max(max_level, level);
    }
  }

  // Final-reader analysis for the move economy: the unique live consumer at
  // the node's deepest consuming wave (a tie means concurrent readers —
  // copy).
  {
    struct FinalUse {
      std::int64_t level = -1;
      std::int64_t job = kNoRoundNode;
    };
    std::vector<FinalUse> use(nodes.size());
    for (std::size_t j = 0; j < job_count; ++j) {
      if (!live[j]) continue;
      for (const auto input : {jobs[j].input_a, jobs[j].input_b}) {
        if (input == kNoRoundNode) continue;
        auto& entry = use[static_cast<std::size_t>(input)];
        if (job_level[j] > entry.level) {
          entry.level = job_level[j];
          entry.job = static_cast<std::int64_t>(j);
        } else if (job_level[j] == entry.level) {
          entry.job = kNoRoundNode;
        }
      }
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].pinned) continue;
      if (nodes[i].kind == NodeKind::kOutput && has_commit) continue;
      mover[i] = use[i].job;
    }
  }

  // Build job j's starting model from its inputs: move from the final
  // reader's source, copy otherwise, then average in input_b (the
  // Observation-1 variant).  Only the input's own final reader ever moves,
  // so concurrent same-wave readers are safe.
  const auto make_model = [&](std::size_t j) -> std::vector<float> {
    const RoundJob& job = jobs[j];
    auto& a = nodes[static_cast<std::size_t>(job.input_a)];
    FEDHISYN_CHECK_MSG(a.has_value, "job input was never produced");
    std::vector<float> model;
    if (mover[static_cast<std::size_t>(job.input_a)] ==
        static_cast<std::int64_t>(j)) {
      model = std::move(a.value);
      a.has_value = false;
    } else {
      model = a.value;
    }
    if (job.input_b != kNoRoundNode) {
      const auto& b = nodes[static_cast<std::size_t>(job.input_b)];
      FEDHISYN_CHECK_MSG(b.has_value, "job input was never produced");
      FEDHISYN_CHECK(b.value.size() == model.size());
      for (std::size_t i = 0; i < model.size(); ++i) {
        model[i] = 0.5f * (model[i] + b.value[i]);
      }
    }
    return model;
  };

  // Run commit c with the publish target resolved (nullptr when nothing ever
  // reads the version it would publish).
  const auto run_commit = [&](std::size_t c) {
    const std::int64_t out = graph.outputs_[c];
    const std::int64_t pub = graph.publishes_[c];
    std::vector<float>* into = nullptr;
    if (pub != kNoRoundNode && refs[static_cast<std::size_t>(pub)] > 0) {
      into = &nodes[static_cast<std::size_t>(pub)].value;
    }
    commit(c, nodes[static_cast<std::size_t>(out)].value, into);
    if (into != nullptr) {
      nodes[static_cast<std::size_t>(pub)].has_value = true;
    }
    release(out);
  };

  // ---- Execute wave by wave.
  //
  // Concurrency discipline (checked by review + TSan, not locks): all
  // wavefront state (nodes, refs) is read and written on the caller
  // thread between waves; during a wave the pool body touches only its own
  // job — its input nodes (made stable before dispatch: moves happen only
  // via the job's own make_model) and its private output slot.
  // parallel_for's barrier orders every wave's writes before the epilogue's
  // reads, so the engine needs no mutex to annotate.
  auto& pool = ParallelExecutor::current();
  const std::size_t threads = pool.thread_count();
  std::vector<std::vector<std::size_t>> by_level(
      static_cast<std::size_t>(max_level));
  for (std::size_t j = 0; j < job_count; ++j) {
    if (live[j]) by_level[static_cast<std::size_t>(job_level[j] - 1)].push_back(j);
  }

  std::size_t next_commit = 0;
  for (std::int64_t level = 1; level <= max_level; ++level) {
    const auto& wave = by_level[static_cast<std::size_t>(level - 1)];
    if (!wave.empty()) {
      // The wave span lives on the caller thread and encloses the pool
      // barrier; train_job spans land on each executing thread's lane (the
      // caller trains inline as slot 0, so its jobs nest inside the wave).
      trace::TraceSpan wave_span("wave", "round_graph");
      wave_span.arg("level", level);
      wave_span.arg("batch", static_cast<std::int64_t>(wave.size()));
      pool.parallel_for(wave.size(), [&](std::size_t i, std::size_t slot) {
        const std::size_t j = wave[i];
        trace::TraceSpan job_span("train_job", "round_graph");
        job_span.arg("job", static_cast<std::int64_t>(j));
        auto model = make_model(j);
        train(jobs[j], model, slot);
        auto& out = nodes[static_cast<std::size_t>(graph.outputs_[j])];
        out.value = std::move(model);
        out.has_value = true;
      });
      ++stats.waves;
      stats.dispatch_slots += (wave.size() + threads - 1) / threads;
    }

    // Wave epilogue (caller thread): retire input reads, and advance the
    // serial commit chain over every job trained by now (with a commit
    // chain all jobs are live, so each has a level).
    for (const auto j : wave) {
      release(jobs[j].input_a);
      if (jobs[j].input_b != kNoRoundNode) release(jobs[j].input_b);
    }
    if (has_commit) {
      while (next_commit < job_count && job_level[next_commit] <= level) {
        run_commit(next_commit);
        ++next_commit;
      }
    }
  }
  FEDHISYN_CHECK(!has_commit || next_commit == job_count);
  record_run_counters(stats);
  return stats;
}

}  // namespace fedhisyn::core
