// Tests for the shared multi-build LRU BuildCache (exp/build_cache.hpp):
// BuiltExperiment::memory_bytes() sizing, hit/miss counting and pointer
// sharing, LRU eviction under a byte budget, the budget-0 mode, same-key
// build deduplication under concurrency, the coordinator's build-affinity
// pass (observed end-to-end through the build_cache.* counter deltas each
// dispatched cell ships home), and a resident --serve worker staying warm
// across connections.  Every outcome is read from the counter registry, the
// one place the cache counts them.
//
// This binary has a custom main like dispatch_test: invoked with --serve it
// becomes a dispatch worker (the process/tcp tests spawn it), otherwise it
// runs the gtest suites.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache_outcomes.hpp"
#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/net.hpp"
#include "common/subprocess.hpp"
#include "exp/build_cache.hpp"
#include "exp/dispatch.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"

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

/// One tiny spec per distinct build: same scale, different build seed (the
/// seed is part of build_key()), so every build has the same byte footprint.
ExperimentSpec tiny_spec(std::uint64_t seed, const std::string& method = "FedAvg") {
  auto grid = tiny_grid();
  grid.base().with_seed(seed);
  grid.methods({method});
  const auto specs = grid.expand();
  FEDHISYN_CHECK_MSG(specs.size() == 1, "tiny_spec expansion is not a single cell");
  return specs[0];
}

// ---------------------------------------------------------- memory_bytes --

TEST(MemoryBytes, CountsTheDominantPayloads) {
  const auto built = build_for(tiny_spec(11));
  // The floor every build must clear: its own train/test tensors and labels.
  const std::size_t tensor_floor =
      static_cast<std::size_t>(built->fed.train.x.numel()) * sizeof(float) +
      static_cast<std::size_t>(built->fed.test.x.numel()) * sizeof(float);
  EXPECT_GT(built->memory_bytes(), tensor_floor);
  // And it cannot be wildly above the sum of everything it claims to count
  // (shards and fleet are small at this scale).
  EXPECT_LT(built->memory_bytes(), 4 * tensor_floor + (1 << 20));
}

TEST(MemoryBytes, GrowsWithTheTrainingSet) {
  auto small = tiny_spec(11);
  auto large = tiny_spec(11);
  large.build.scale.train_samples_per_device *= 4;
  EXPECT_GT(build_for(large)->memory_bytes(), build_for(small)->memory_bytes());
}

// ------------------------------------------------------------ hit / miss --

TEST(BuildCache, MissThenHitSharesOnePointer) {
  BuildCache cache(BuildCache::Config{BuildCache::default_budget_bytes(), {}});
  const auto before = counters::snapshot();
  bool hit = true;
  const auto first = cache.get(tiny_spec(11), &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get(tiny_spec(11), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());

  const CacheOutcomes counted = cache_outcomes_since(before);
  EXPECT_EQ(counted.hits, 1u);
  EXPECT_EQ(counted.misses, 1u);
  EXPECT_EQ(counted.evictions, 0u);
  const BuildCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.resident_builds, 1u);
  EXPECT_EQ(stats.resident_bytes, first->memory_bytes());
}

TEST(BuildCache, DifferentBuildKeysGetDifferentBuilds) {
  BuildCache cache(BuildCache::Config{BuildCache::default_budget_bytes(), {}});
  const auto a = cache.get(tiny_spec(11));
  const auto b = cache.get(tiny_spec(17));
  EXPECT_NE(a.get(), b.get());
  // Same build key through different methods still shares one build: the
  // method is an opts field, not a build field.
  const auto a_again = cache.get(tiny_spec(11, "FedHiSyn"));
  EXPECT_EQ(a.get(), a_again.get());
  EXPECT_EQ(cache.stats().resident_builds, 2u);
}

// ------------------------------------------------------------------- LRU --

TEST(BuildCache, EvictsLeastRecentlyUsedPastTheByteBudget) {
  // Same scale, different seeds: every build occupies the same bytes, so a
  // budget of 2.5 builds holds exactly two.
  const std::size_t one = build_for(tiny_spec(1))->memory_bytes();
  BuildCache cache(BuildCache::Config{one * 5 / 2, {}});
  const auto before = counters::snapshot();

  const auto s1 = cache.get(tiny_spec(1));  // resident: {1}
  cache.get(tiny_spec(2));                  // resident: {1, 2}
  cache.get(tiny_spec(1));                  // refresh 1's recency
  cache.get(tiny_spec(3));                  // over budget -> evict 2 (LRU)
  EXPECT_EQ(cache_outcomes_since(before).evictions, 1u);
  EXPECT_EQ(cache.stats().resident_builds, 2u);

  bool hit = true;
  cache.get(tiny_spec(2), &hit);  // 2 was evicted: miss, evicts 1 in turn
  EXPECT_FALSE(hit);
  cache.get(tiny_spec(3), &hit);  // 3 survived both evictions
  EXPECT_TRUE(hit);

  const CacheOutcomes counted = cache_outcomes_since(before);
  EXPECT_EQ(counted.misses, 4u);  // 1, 2, 3, then 2 again
  EXPECT_EQ(counted.hits, 2u);    // the refresh of 1, the final 3
  EXPECT_EQ(counted.evictions, 2u);
  const BuildCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.resident_builds, 2u);
  EXPECT_LE(stats.resident_bytes, cache.max_bytes());
  // Eviction only drops the cache's reference: the evicted build stays
  // usable through the shared_ptr handed out earlier.
  EXPECT_GT(s1->fed.train.x.numel(), 0);
}

// ---------------------------------------------------------- zero budget --

TEST(BuildCache, ZeroBudgetDisablesCachingButBuildsIdentically) {
  BuildCache disabled(BuildCache::Config{0, {}});
  const auto before = counters::snapshot();
  bool hit = true;
  const auto first = disabled.get(tiny_spec(11), &hit);
  EXPECT_FALSE(hit);
  const auto second = disabled.get(tiny_spec(11), &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(first.get(), second.get());  // nothing was retained
  // Each build is accounted and evicted at once.
  const CacheOutcomes counted = cache_outcomes_since(before);
  EXPECT_EQ(counted.misses, 2u);
  EXPECT_EQ(counted.hits, 0u);
  EXPECT_EQ(counted.evictions, 2u);
  EXPECT_EQ(disabled.stats().resident_builds, 0u);
  EXPECT_EQ(disabled.stats().resident_bytes, 0u);

  // A build is a pure function of the spec: cached or not, the cell's
  // result bytes are identical.
  const auto spec = tiny_spec(11);
  BuildCache cached(BuildCache::Config{BuildCache::default_budget_bytes(), {}});
  const auto cold = run_cell(spec, *disabled.get(spec));
  const auto warm = run_cell(spec, *cached.get(spec));
  EXPECT_EQ(to_jsonl_line(cold), to_jsonl_line(warm));
}

// ----------------------------------------------------------- concurrency --

TEST(BuildCache, ConcurrentSameKeyCallersShareOneBuild) {
  BuildCache cache(BuildCache::Config{BuildCache::default_budget_bytes(), {}});
  const auto before = counters::snapshot();
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const core::BuiltExperiment>> builds(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { builds[t] = cache.get(tiny_spec(11)); });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(builds[0].get(), builds[t].get());
  // Exactly one build ran; a caller that waited on it counts as a hit.
  const CacheOutcomes counted = cache_outcomes_since(before);
  EXPECT_EQ(counted.misses, 1u);
  EXPECT_EQ(counted.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.stats().resident_builds, 1u);
}

// ----------------------------------------- dispatch: affinity + counts --

TEST(DispatchCache, AffinityDrainsInterleavedBuildsWithoutThrashing) {
  // Four cells over two builds (A = seed 11, B = seed 17), deliberately
  // interleaved A,B,A,B, on ONE worker whose budget holds a single build.
  // The affinity pass must drain them build by build — A,A,B,B — costing 2
  // misses and 1 eviction; spec-order dispatch would rebuild on every cell
  // (4 misses, 3 evictions).
  auto grid_a = tiny_grid();
  grid_a.methods({"FedAvg", "FedHiSyn"});
  auto grid_b = tiny_grid();
  grid_b.base().with_seed(17);
  grid_b.methods({"FedAvg", "FedHiSyn"});
  const auto cells_a = grid_a.expand();
  const auto cells_b = grid_b.expand();
  ASSERT_EQ(cells_a.size(), 2u);
  ASSERT_EQ(cells_b.size(), 2u);
  const std::vector<ExperimentSpec> specs = {cells_a[0], cells_b[0], cells_a[1],
                                             cells_b[1]};

  GridScheduler::Options serial_options;
  serial_options.jobs = 1;
  serial_options.backend = CellBackend::kThread;
  const auto serial = GridScheduler(serial_options).run(specs);

  // Budget: 1.5 builds — one resident at a time (both builds are the same
  // size: same scale, different seed), handed to the worker as an override.
  const double budget_mb =
      1.5 * static_cast<double>(build_for(specs[0])->memory_bytes()) /
      (1024.0 * 1024.0);
  char budget_text[64];
  std::snprintf(budget_text, sizeof(budget_text), "%.9g", budget_mb);

  TcpDispatcher::Options options;
  options.spawn = 1;
  options.spawn_env = {std::string("FEDHISYN_BUILD_CACHE_MB=") + budget_text,
                       "FEDHISYN_QUIET=1"};
  const auto before = counters::snapshot();
  const auto process = TcpDispatcher(options).run(specs);
  const CacheOutcomes counted = cache_outcomes_since(before);
  ASSERT_EQ(process.size(), 4u);

  // Byte-identity survives affinity reordering and the tiny budget.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(serial[i]), to_jsonl_line(process[i])) << i;
  }

  // Per-cell outcomes, from each cell's shipped counter deltas: the first
  // cell of each build missed, its affinity partner hit.  (Assignment order
  // was A0, A1, B0, B1; results are indexed by spec, so the hits land on
  // indices 2 and 3.)
  const auto outcome = [&](std::size_t i) {
    return cache_outcomes(process[i].telemetry.counters);
  };
  EXPECT_EQ(outcome(0).misses, 1u);  // A0: cold
  EXPECT_EQ(outcome(1).misses, 1u);  // B0: cold (after A was evicted)
  EXPECT_EQ(outcome(2).hits, 1u);    // A1: affinity kept A resident
  EXPECT_EQ(outcome(3).hits, 1u);    // B1: affinity kept B resident
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcome(i).hits + outcome(i).misses, 1u) << i;
  }

  // The whole sweep, as the coordinator's registry totals it: 2 builds,
  // not 4, and exactly one eviction (A, when B displaced it).
  EXPECT_EQ(counted.misses, 2u);
  EXPECT_EQ(counted.hits, 2u);
  EXPECT_EQ(counted.evictions, 1u);
}

TEST(DispatchCache, ResidentServeWorkerStaysWarmAcrossConnections) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedHiSyn"});
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);

  // One resident worker, default budget, two back-to-back sweeps = two
  // separate coordinator connections against one worker-lifetime cache.
  ServeWorker worker({"FEDHISYN_QUIET=1"});
  TcpDispatcher::Options options;
  options.hosts = {worker.endpoint()};

  auto before = counters::snapshot();
  const auto first = TcpDispatcher(options).run(specs);
  const CacheOutcomes first_counted = cache_outcomes_since(before);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(cache_outcomes(first[0].telemetry.counters).misses, 1u);  // the one build
  EXPECT_EQ(cache_outcomes(first[1].telemetry.counters).hits, 1u);  // same key, 2nd method
  EXPECT_EQ(first_counted.misses, 1u);
  EXPECT_EQ(first_counted.hits, 1u);

  before = counters::snapshot();
  const auto second = TcpDispatcher(options).run(specs);
  const CacheOutcomes second_counted = cache_outcomes_since(before);
  ASSERT_EQ(second.size(), 2u);
  // Warm from the previous connection: no build ran, nothing was evicted.
  EXPECT_EQ(cache_outcomes(second[0].telemetry.counters).hits, 1u);
  EXPECT_EQ(cache_outcomes(second[1].telemetry.counters).hits, 1u);
  EXPECT_EQ(second_counted.misses, 0u);
  EXPECT_EQ(second_counted.hits, 2u);
  EXPECT_EQ(second_counted.evictions, 0u);

  // The two sweeps' output bytes are identical — warmth is invisible there.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(first[i]), to_jsonl_line(second[i])) << i;
  }
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
