// The shared task-graph round engine (core/round_graph.hpp): executor
// semantics on synthetic graphs (equivalence with an in-test sequential
// reference, pruning, pinning) and the byte-identity contract of the async
// rounds — FedAsync/TAFedAvg serialise identically (JSONL line + final
// weights) across 1/4/8 threads, including fleets engineered to produce
// equal-time event ties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/fedasync.hpp"
#include "core/presets.hpp"
#include "core/round_graph.hpp"
#include "core/tafedavg.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "nn/models.hpp"
#include "sim/events.hpp"

namespace fedhisyn {
namespace {

using core::RoundGraph;
using core::RoundGraphExecutor;
using core::RoundJob;

// Cheap deterministic stand-in for local training: a pure function of
// (device, stream, model bytes), like the real train_local.
RoundGraphExecutor::TrainFn fake_train() {
  return [](const RoundJob& job, std::vector<float>& model) {
    for (std::size_t i = 0; i < model.size(); ++i) {
      const auto salt = static_cast<float>((job.stream >> (i % 24)) & 0xFu);
      model[i] = 0.5f * model[i] + salt + static_cast<float>(job.device + 1);
    }
  };
}

/// Async-shaped graph: `chains` devices, each looping `length` jobs where
/// every job after the first consumes the version its own commit's
/// re-download published.  The commit chain mixes uploads into `global` at
/// `alpha` and publishes the result, exactly like the async algorithms.
struct MixWorld {
  RoundGraph graph;
  std::vector<float> global;
  std::vector<std::vector<float>> committed;  // global after each commit
  /// Per job: the job whose commit published its input, or -1 for the
  /// round-start snapshot (what the sequential reference walks).
  std::vector<std::int64_t> input_job;

  explicit MixWorld(std::size_t chains, std::size_t length, std::size_t dim) {
    global.assign(dim, 1.0f);
    const std::int64_t snapshot = graph.add_seed(global);
    std::vector<std::int64_t> input(chains, snapshot);
    std::vector<std::int64_t> publisher(chains, -1);
    // Interleave the chains round-robin, mirroring event-time order of a
    // homogeneous fleet.
    for (std::size_t step = 0; step < length; ++step) {
      for (std::size_t d = 0; d < chains; ++d) {
        RoundJob job;
        job.device = d;
        job.input_a = input[d];
        job.stream = 0x9E3779B97F4A7C15ull * (step * chains + d + 1);
        const std::size_t index = graph.add_job(job);
        input_job.push_back(publisher[d]);
        if (step + 1 < length) {
          const std::int64_t version = graph.add_version();
          graph.publish_on_commit(index, version);
          input[d] = version;
          publisher[d] = static_cast<std::int64_t>(index);
        }
      }
    }
  }

  RoundGraphExecutor::CommitFn commit_fn(float alpha) {
    return [this, alpha](std::size_t, const std::vector<float>& output,
                         std::vector<float>* publish_into) {
      for (std::size_t i = 0; i < global.size(); ++i) {
        global[i] = (1.0f - alpha) * global[i] + alpha * output[i];
      }
      committed.push_back(global);
      if (publish_into != nullptr) *publish_into = global;
    };
  }
};

std::vector<std::vector<float>> run_mix_world(std::size_t chains,
                                              std::size_t length, float alpha,
                                              std::size_t threads) {
  ParallelExecutor pool(threads);
  ParallelExecutor::Bind bind(pool);
  MixWorld world(chains, length, 16);
  const RoundGraphExecutor executor;
  executor.run(world.graph, fake_train(), world.commit_fn(alpha));
  return world.committed;
}

/// The same world walked without the executor: every job in append order
/// trains its input (the snapshot or an earlier commit's published global),
/// is mixed into the global, and publishes the result.
std::vector<std::vector<float>> sequential_mix_world(std::size_t chains,
                                                     std::size_t length,
                                                     float alpha) {
  MixWorld world(chains, length, 16);
  const auto train = fake_train();
  const auto commit = world.commit_fn(alpha);
  const std::vector<float> snapshot = world.global;
  std::vector<std::vector<float>> published(world.graph.job_count());
  for (std::size_t j = 0; j < world.graph.job_count(); ++j) {
    const std::int64_t source = world.input_job[j];
    std::vector<float> model =
        source < 0 ? snapshot : published[static_cast<std::size_t>(source)];
    train(world.graph.job(j), model);
    commit(j, model, &published[j]);
  }
  return world.committed;
}

TEST(RoundGraphExecutor, MatchesSequentialReferenceOnMixChains) {
  for (const float alpha : {0.0f, 0.3f, 1.0f}) {
    const auto reference = sequential_mix_world(3, 4, alpha);
    ASSERT_EQ(reference.size(), 12u);
    for (const std::size_t threads : {1u, 4u, 8u}) {
      EXPECT_EQ(reference, run_mix_world(3, 4, alpha, threads))
          << "alpha=" << alpha << " threads=" << threads;
    }
  }
}

TEST(RoundGraphExecutor, PrunesJobsNothingObserves) {
  // Ring-shaped graph (no commit chain): device 0's second output is pinned;
  // device 1 trains once and its output feeds nothing — it must be pruned.
  RoundGraph graph;
  const auto seed0 = graph.add_seed({1.0f, 2.0f});
  const auto seed1 = graph.add_seed({3.0f, 4.0f});
  const auto first = graph.add_job({0, seed0, core::kNoRoundNode, 7});
  const auto orphan = graph.add_job({1, seed1, core::kNoRoundNode, 8});
  const auto second =
      graph.add_job({0, graph.output_of(first), core::kNoRoundNode, 9});
  (void)orphan;
  graph.pin(graph.output_of(second));
  graph.pin(seed1);

  ParallelExecutor pool(2);
  ParallelExecutor::Bind bind(pool);
  const RoundGraphExecutor executor;
  const auto stats = executor.run(graph, fake_train(), nullptr);
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_EQ(stats.pruned, 1u);
  // Pinned nodes survive: the untouched seed comes back unchanged.
  EXPECT_EQ(graph.take(seed1), (std::vector<float>{3.0f, 4.0f}));
  EXPECT_EQ(graph.take(graph.output_of(second)).size(), 2u);
}

TEST(RoundGraphExecutor, TwoInputJobsAverageBeforeTraining) {
  // The Observation-1 averaging edge: input_b is mixed 50/50 into input_a's
  // copy before training.
  RoundGraph graph;
  const auto a = graph.add_seed({2.0f, 4.0f});
  const auto b = graph.add_seed({6.0f, 8.0f});
  const auto job = graph.add_job({0, a, b, 0});
  graph.pin(graph.output_of(job));
  ParallelExecutor pool(2);
  ParallelExecutor::Bind bind(pool);
  const RoundGraphExecutor executor;
  executor.run(graph,
               [](const RoundJob&, std::vector<float>& model) {
                 for (auto& x : model) x += 1.0f;
               },
               nullptr);
  const std::vector<float> expected = {5.0f, 7.0f};  // mean + 1
  EXPECT_EQ(graph.take(graph.output_of(job)), expected);
}

/// Ring-shaped graph with no commit chain, built the way the ring engine's
/// replay builds one: devices train on staggered schedules, some jobs
/// average in their predecessor's latest model (input_b), and device 4's
/// odd-step outputs are overwritten before anyone reads them, so nothing
/// observes those jobs.  Every device's final model and one seed are
/// pinned.
struct RingWorld {
  static constexpr std::size_t kDevices = 5;
  static constexpr std::size_t kSteps = 6;
  RoundGraph graph;
  std::vector<std::int64_t> pinned;
  std::vector<std::vector<float>> seed_value;  // by node id; seeds come first

  std::int64_t add_seed(std::vector<float> value) {
    seed_value.push_back(value);
    return graph.add_seed(std::move(value));
  }

  RingWorld() {
    std::vector<std::int64_t> latest(kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
      std::vector<float> seed(9);
      for (std::size_t i = 0; i < seed.size(); ++i) {
        seed[i] = static_cast<float>(d * 10 + i) * 0.25f;
      }
      latest[d] = add_seed(std::move(seed));
    }
    const std::int64_t untouched = add_seed({7.0f, 8.0f});
    for (std::size_t step = 0; step < kSteps; ++step) {
      for (std::size_t d = 0; d < kDevices; ++d) {
        if ((step + d) % 3 == 0) continue;  // busy elsewhere this step
        RoundJob job;
        job.device = d;
        job.input_a = latest[d];
        if ((step + d) % 2 == 0) job.input_b = latest[(d + kDevices - 1) % kDevices];
        job.stream = 0xD1B54A32D192ED03ull * (step * kDevices + d + 1);
        const std::size_t index = graph.add_job(job);
        if (d == 4 && step % 2 == 1) continue;  // orphaned output
        latest[d] = graph.output_of(index);
      }
    }
    pinned = latest;
    pinned.push_back(untouched);
    for (const auto node : pinned) graph.pin(node);
  }
};

/// RingWorld walked without the executor: every job in append order, each
/// node's value kept forever.
std::vector<std::vector<float>> sequential_ring_world() {
  RingWorld world;
  std::vector<std::vector<float>> value = world.seed_value;
  value.resize(world.graph.node_count());
  const auto train = fake_train();
  for (std::size_t j = 0; j < world.graph.job_count(); ++j) {
    const RoundJob& job = world.graph.job(j);
    std::vector<float> model = value[static_cast<std::size_t>(job.input_a)];
    if (job.input_b != core::kNoRoundNode) {
      const auto& b = value[static_cast<std::size_t>(job.input_b)];
      for (std::size_t i = 0; i < model.size(); ++i) model[i] = 0.5f * (model[i] + b[i]);
    }
    train(job, model);
    value[static_cast<std::size_t>(world.graph.output_of(j))] = std::move(model);
  }
  std::vector<std::vector<float>> result;
  for (const auto node : world.pinned) result.push_back(value[static_cast<std::size_t>(node)]);
  return result;
}

TEST(RoundGraphExecutor, RingGraphMatchesSequentialReference) {
  const auto reference = sequential_ring_world();
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    ParallelExecutor pool(threads);
    ParallelExecutor::Bind bind(pool);
    RingWorld world;
    const RoundGraphExecutor executor;
    const auto stats = executor.run(world.graph, fake_train(), nullptr);
    EXPECT_EQ(stats.pruned, 2u) << "threads=" << threads;  // device 4, steps 1 and 3
    EXPECT_EQ(stats.jobs + stats.pruned, world.graph.job_count());
    std::vector<std::vector<float>> got;
    for (const auto node : world.pinned) got.push_back(world.graph.take(node));
    EXPECT_EQ(reference, got) << "threads=" << threads;
  }
}

TEST(RoundGraphExecutor, FailingJobIsRethrownAndItsDependentsNeverRun) {
  // MixWorld(3, 4): job 3*step + d is device d's step-th upload.  Job 4
  // (device 1, step 1) throws; its commit never runs, so neither do the
  // commits after it nor the jobs reading versions they would publish.
  for (const std::size_t threads : {1u, 4u}) {
    ParallelExecutor pool(threads);
    ParallelExecutor::Bind bind(pool);
    MixWorld world(3, 4, 16);
    std::mutex mutex;
    std::vector<std::size_t> trained;
    const auto train = fake_train();
    const RoundGraphExecutor executor;
    std::map<std::uint64_t, std::size_t> index_of;  // streams are distinct
    for (std::size_t j = 0; j < world.graph.job_count(); ++j) {
      index_of[world.graph.job(j).stream] = j;
    }
    const auto run = [&] {
      executor.run(
          world.graph,
          [&](const RoundJob& job, std::vector<float>& model) {
            const std::size_t index = index_of.at(job.stream);
            if (index == 4) throw std::runtime_error("job 4 failed");
            train(job, model);
            std::lock_guard<std::mutex> lock(mutex);
            trained.push_back(index);
          },
          world.commit_fn(0.3f));
    };
    EXPECT_THROW(run(), std::runtime_error) << "threads=" << threads;
    EXPECT_LE(world.committed.size(), 4u) << "threads=" << threads;
    for (const std::size_t dependent : {7u, 10u}) {
      EXPECT_EQ(std::count(trained.begin(), trained.end(), dependent), 0)
          << "job " << dependent << " ran after its input failed, threads=" << threads;
    }
  }
}

TEST(RoundGraphExecutor, ReadyCountsBeatWavesOnStaggeredGraphs) {
  // One chain c0 -> c1 -> c2 -> c3 beside four independent jobs i0..i3,
  // appended c0 i0 c1 i1 c2 i2 c3 i3.  Level by level the waves are
  // {c0,i0..i3}, {c1}, {c2}, {c3}: on 2 threads sum(ceil(wave / 2)) =
  // 3 + 1 + 1 + 1 = 6 slots.  By ready counts the chain pairs with one
  // independent job per slot: 4 slots.
  constexpr std::size_t kWaveSlots = 6;
  RoundGraph graph;
  const auto seed = graph.add_seed({1.0f, 2.0f, 3.0f});
  std::int64_t chain = seed;
  std::vector<std::int64_t> outputs;
  for (std::size_t k = 0; k < 4; ++k) {
    chain = graph.output_of(graph.add_job({0, chain, core::kNoRoundNode, 2 * k + 1}));
    outputs.push_back(graph.output_of(graph.add_job({1, seed, core::kNoRoundNode, 2 * k + 2})));
  }
  outputs.push_back(chain);
  for (const auto node : outputs) graph.pin(node);

  ParallelExecutor pool(2);
  ParallelExecutor::Bind bind(pool);
  const RoundGraphExecutor executor;
  const auto stats = executor.run(graph, fake_train(), nullptr);
  EXPECT_EQ(stats.jobs, 8u);
  EXPECT_EQ(stats.waves, 4u);
  EXPECT_EQ(stats.dispatch_slots, 4u);
  EXPECT_LT(stats.dispatch_slots, kWaveSlots);
}

// ------------------------------------------------- EventQueue tie-breaks --

TEST(EventQueueTieBreak, EqualTimesPopInScheduleOrderAcrossInterleaving) {
  sim::EventQueue queue;
  queue.schedule(1.0, 10);
  queue.schedule(2.0, 20);
  queue.schedule(1.0, 11);  // ties with the first event: FIFO by sequence
  queue.schedule(2.0, 21);
  queue.schedule(1.0, 12);
  const std::size_t expected[] = {10, 11, 12, 20, 21};
  for (const auto device : expected) {
    const auto event = queue.pop();
    EXPECT_EQ(event.device, device);
  }
}

TEST(EventQueueTieBreak, IdenticalSchedulesReplayIdentically) {
  // Two queues fed the same schedule must pop identical (time, sequence,
  // device) triples — the foundation of the symbolic replay's determinism.
  const auto feed = [](sim::EventQueue& queue) {
    queue.reset(0.0);
    for (std::size_t d = 0; d < 6; ++d) queue.schedule(5.0, d);
    queue.schedule(2.5, 7);
    queue.schedule(5.0, 8);
  };
  sim::EventQueue a, b;
  feed(a);
  feed(b);
  while (!a.empty()) {
    ASSERT_FALSE(b.empty());
    const auto ea = a.pop();
    const auto eb = b.pop();
    EXPECT_EQ(ea.time, eb.time);
    EXPECT_EQ(ea.sequence, eb.sequence);
    EXPECT_EQ(ea.device, eb.device);
  }
  EXPECT_TRUE(b.empty());
}

// ------------------------------------- async byte-identity (JSONL level) --

struct RunOutput {
  std::string jsonl;
  std::vector<float> weights;
};

RunOutput run_method(const std::string& method, std::size_t threads) {
  ParallelExecutor::global().set_thread_count(threads);
  exp::ExperimentSpec spec;
  spec.build.dataset = "mnist";
  spec.build.scale = core::default_scale("mnist", false);
  spec.build.scale.devices = 10;
  spec.build.scale.rounds = 3;
  spec.with_seed(7);
  spec.method = method;
  RunOutput out;
  exp::CellHooks hooks;
  hooks.final_weights = &out.weights;
  const auto cell = exp::run_cell(spec, hooks);
  out.jsonl = exp::to_jsonl_line(cell);
  ParallelExecutor::global().set_thread_count(ParallelExecutor::threads_from_env());
  return out;
}

void expect_bitwise_equal(const RunOutput& a, const RunOutput& b,
                          const std::string& what) {
  EXPECT_EQ(a.jsonl, b.jsonl) << what;
  ASSERT_EQ(a.weights.size(), b.weights.size()) << what;
  EXPECT_EQ(std::memcmp(a.weights.data(), b.weights.data(),
                        a.weights.size() * sizeof(float)),
            0)
      << what;
}

TEST(AsyncByteIdentity, AsyncMethodsMatchAcrossThreadCounts) {
  for (const std::string method : {"FedAsync", "TAFedAvg"}) {
    // The reference: one thread, where every wave runs inline.
    const auto reference = run_method(method, 1);
    for (const std::size_t threads : {4u, 8u}) {
      expect_bitwise_equal(reference, run_method(method, threads),
                           method + " threads=" + std::to_string(threads));
    }
  }
}

// ----------------------------- equal-time ties through the full pipeline --

/// A world engineered for equal-time events: half the fleet runs exactly
/// twice as fast as the rest, so the fast devices' second (re-downloaded)
/// jobs land at the same virtual instant as the slow devices' first jobs —
/// an 8-way tie broken purely by the EventQueue's schedule sequence.
struct TieWorld {
  data::FederatedData fed;
  nn::Network network;
  sim::Fleet fleet;

  TieWorld() : network(nn::make_mlp(12, 3, {8})) {
    Rng rng(11);
    data::SyntheticSpec spec;
    spec.name = "tie";
    spec.n_classes = 3;
    spec.width = 12;
    auto split = data::generate(spec, 240, 90, rng);
    fed.train = std::move(split.train);
    fed.test = std::move(split.test);
    data::PartitionConfig pc;
    pc.iid = true;
    fed.shards = data::make_partition(fed.train, 8, pc, rng);
    fleet = sim::make_fleet_homogeneous(8);
    for (std::size_t d = 0; d < 4; ++d) fleet[d].epoch_time = 0.5;
  }

  core::FlContext context() const {
    core::FlContext ctx;
    ctx.network = &network;
    ctx.fed = &fed;
    ctx.fleet = &fleet;
    ctx.opts.local_epochs = 2;
    ctx.opts.batch_size = 20;
    return ctx;
  }
};

TEST(AsyncByteIdentity, HomogeneousFleetTiesStayDeterministic) {
  const TieWorld world;
  const auto run = [&](std::size_t threads) {
    ParallelExecutor::global().set_thread_count(threads);
    core::TAFedAvgAlgo tafedavg(world.context());
    core::FedAsyncAlgo fedasync(world.context());
    std::vector<float> trace;
    for (int round = 0; round < 2; ++round) {
      tafedavg.run_round();
      fedasync.run_round();
    }
    const auto ta = tafedavg.global_weights();
    const auto fa = fedasync.global_weights();
    trace.insert(trace.end(), ta.begin(), ta.end());
    trace.insert(trace.end(), fa.begin(), fa.end());
    trace.push_back(static_cast<float>(fedasync.global_version()));
    trace.push_back(static_cast<float>(tafedavg.comm().server_model_units()));
    ParallelExecutor::global().set_thread_count(
        ParallelExecutor::threads_from_env());
    return trace;
  };
  const auto reference = run(1);
  EXPECT_EQ(reference, run(4));
  EXPECT_EQ(reference, run(8));
}

}  // namespace
}  // namespace fedhisyn
