// Unit tests for src/core substrate pieces: local trainer, aggregation
// rules, the ring-circulation engine, the experiment runner, and presets.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/aggregate.hpp"
#include "core/presets.hpp"
#include "core/ring_engine.hpp"
#include "core/runner.hpp"
#include "core/trainer.hpp"
#include "core/fedhisyn_algo.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace fedhisyn::core {
namespace {

/// Tiny shared fixture: 6 devices, separable 16-dim 4-class data, small MLP.
struct TinyWorld {
  data::FederatedData fed;
  nn::Network network;
  sim::Fleet fleet;

  TinyWorld(bool iid = true, double beta = 0.3,
            std::vector<double> epoch_times = {})
      : network(nn::make_mlp(16, 4, {12})) {
    Rng rng(5);
    data::SyntheticSpec spec;
    spec.name = "tiny";
    spec.n_classes = 4;
    spec.width = 16;
    spec.separation = 3.0;
    spec.noise = 0.8;
    spec.nuisance = 0.2;
    auto split = data::generate(spec, 240, 120, rng);
    fed.train = std::move(split.train);
    fed.test = std::move(split.test);
    data::PartitionConfig pc;
    pc.iid = iid;
    pc.beta = beta;
    fed.shards = data::make_partition(fed.train, 6, pc, rng);
    if (epoch_times.empty()) {
      fleet = sim::make_fleet_homogeneous(6);
    } else {
      fleet.resize(epoch_times.size());
      for (std::size_t i = 0; i < epoch_times.size(); ++i) {
        fleet[i] = {i, epoch_times[i]};
      }
    }
  }

  FlContext context(FlOptions opts = {}) const {
    FlContext ctx;
    ctx.network = &network;
    ctx.fed = &fed;
    ctx.fleet = &fleet;
    ctx.opts = opts;
    return ctx;
  }
};

TEST(Trainer, ReducesLossOnShard) {
  const TinyWorld world;
  Rng rng(11);
  auto weights = world.network.init_weights(rng);
  nn::Workspace ws;

  // Loss on the shard before and after 5 epochs.
  Tensor bx;
  std::vector<std::int32_t> by;
  const auto& shard = world.fed.shards[0];
  const auto order = shard.make_order();
  shard.gather(order, 0, shard.size(), bx, by);
  const float before = world.network.loss(weights, bx, by, ws);
  const auto outcome = train_local(world.network, weights, shard, 5, 10, 0.1f,
                                   UpdateKind::kSgd, {}, rng);
  const float after = world.network.loss(weights, bx, by, ws);
  EXPECT_LT(after, before);
  EXPECT_GT(outcome.steps, 0);
  // 40 samples, batch 10 -> 4 steps/epoch * 5 epochs.
  EXPECT_EQ(outcome.steps, 5 * ((shard.size() + 9) / 10));
}

TEST(Trainer, ProxStaysCloserToAnchorThanPlainSgd) {
  const TinyWorld world;
  Rng rng(13);
  const auto anchor = world.network.init_weights(rng);

  auto w_sgd = anchor;
  Rng r1(17);
  train_local(world.network, w_sgd, world.fed.shards[1], 8, 10, 0.1f, UpdateKind::kSgd,
              {}, r1);

  auto w_prox = anchor;
  UpdateExtras extras;
  extras.prox_anchor = anchor;
  extras.prox_mu = 1.0f;
  Rng r2(17);
  train_local(world.network, w_prox, world.fed.shards[1], 8, 10, 0.1f, UpdateKind::kProx,
              extras, r2);

  double d_sgd = 0.0;
  double d_prox = 0.0;
  for (std::size_t i = 0; i < anchor.size(); ++i) {
    d_sgd += (w_sgd[i] - anchor[i]) * (w_sgd[i] - anchor[i]);
    d_prox += (w_prox[i] - anchor[i]) * (w_prox[i] - anchor[i]);
  }
  EXPECT_LT(d_prox, d_sgd);
}

TEST(Trainer, ScaffoldZeroVariatesEqualsSgd) {
  const TinyWorld world;
  Rng rng(19);
  const auto init = world.network.init_weights(rng);
  const std::vector<float> zeros(init.size(), 0.0f);

  auto w1 = init;
  Rng r1(23);
  train_local(world.network, w1, world.fed.shards[2], 3, 10, 0.1f, UpdateKind::kSgd, {},
              r1);
  auto w2 = init;
  UpdateExtras extras;
  extras.c_local = zeros;
  extras.c_global = zeros;
  Rng r2(23);
  train_local(world.network, w2, world.fed.shards[2], 3, 10, 0.1f,
              UpdateKind::kScaffold, extras, r2);
  for (std::size_t i = 0; i < w1.size(); ++i) ASSERT_FLOAT_EQ(w1[i], w2[i]);
}

TEST(Trainer, DeterministicGivenRng) {
  const TinyWorld world;
  Rng rng(29);
  const auto init = world.network.init_weights(rng);
  auto w1 = init;
  auto w2 = init;
  Rng r1(31);
  Rng r2(31);
  train_local(world.network, w1, world.fed.shards[0], 4, 7, 0.05f, UpdateKind::kSgd, {},
              r1);
  train_local(world.network, w2, world.fed.shards[0], 4, 7, 0.05f, UpdateKind::kSgd, {},
              r2);
  EXPECT_EQ(w1, w2);
}

TEST(Aggregate, UniformWeightsSumToOne) {
  const auto w = uniform_weights(7);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-12);
  for (const auto v : w) EXPECT_NEAR(v, 1.0 / 7.0, 1e-12);
}

TEST(Aggregate, SampleWeightsProportional) {
  const std::vector<std::int64_t> sizes = {10, 30, 60};
  const auto w = sample_weights(sizes);
  EXPECT_NEAR(w[0], 0.1, 1e-12);
  EXPECT_NEAR(w[2], 0.6, 1e-12);
}

TEST(Aggregate, TimeWeightsEq10) {
  const std::vector<double> class_times = {1.0, 3.0};
  const auto w = time_weights(class_times);
  EXPECT_NEAR(w[0], 0.25, 1e-12);
  EXPECT_NEAR(w[1], 0.75, 1e-12);
}

TEST(Aggregate, RejectsNonNormalisedWeights) {
  std::vector<float> a = {1.0f};
  std::vector<float> b = {2.0f};
  std::vector<std::span<const float>> models = {a, b};
  std::vector<double> bad = {0.7, 0.7};
  std::vector<float> out(1);
  EXPECT_THROW(aggregate_models(models, bad, out), CheckError);
}

TEST(Aggregate, IdenticalModelsAreAFixedPoint) {
  // Aggregating N copies of the same model must return that model exactly —
  // the invariant that makes round 0 of every algorithm well-defined.
  std::vector<float> w = {1.5f, -2.25f, 0.0f, 3.75f};
  std::vector<std::span<const float>> models = {w, w, w};
  std::vector<float> out(w.size());
  aggregate_models(models, uniform_weights(3), out);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_FLOAT_EQ(out[i], w[i]);
}

TEST(Aggregate, ConvexCombinationOfModels) {
  std::vector<float> a = {0.0f, 4.0f};
  std::vector<float> b = {2.0f, 0.0f};
  std::vector<std::span<const float>> models = {a, b};
  std::vector<double> w = {0.5, 0.5};
  std::vector<float> out(2);
  aggregate_models(models, w, out);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
}

TEST(RingEngine, HomogeneousRingCompletesExpectedJobs) {
  // 6 devices, epoch_time 1, 5-epoch jobs, interval exactly 3 jobs long.
  const TinyWorld world;
  FlOptions opts;
  opts.local_epochs = 5;
  const auto ctx = world.context(opts);
  RingEngine engine(ctx);
  std::vector<std::size_t> members = {0, 1, 2, 3, 4, 5};
  std::vector<double> times(6, 5.0);
  Rng rng(37);
  const auto ring =
      sim::RingTopology::build(members, times, sim::RingOrder::kSmallToLarge, rng);
  std::vector<std::vector<float>> seeds(6);
  Rng init(41);
  for (auto& seed : seeds) seed = world.network.init_weights(init);
  const auto result = engine.run_interval({ring}, members, std::move(seeds), 15.0, rng);
  for (std::size_t d = 0; d < 6; ++d) {
    EXPECT_EQ(result.jobs_completed[d], 3) << "device " << d;
  }
  // Every completed job forwards a model: 18 hops.
  EXPECT_EQ(result.hops, 18);
}

TEST(RingEngine, FastDevicesCompleteMoreJobs) {
  // Heterogeneous: device 0 is 4x faster than device 5.
  const TinyWorld world(true, 0.3, {1.0, 1.0, 2.0, 2.0, 4.0, 4.0});
  FlOptions opts;
  opts.local_epochs = 5;
  const auto ctx = world.context(opts);
  RingEngine engine(ctx);
  std::vector<std::size_t> members = {0, 1, 2, 3, 4, 5};
  std::vector<double> times = {5.0, 5.0, 10.0, 10.0, 20.0, 20.0};
  Rng rng(43);
  const auto ring =
      sim::RingTopology::build(members, times, sim::RingOrder::kSmallToLarge, rng);
  std::vector<std::vector<float>> seeds(6);
  Rng init(47);
  for (auto& seed : seeds) seed = world.network.init_weights(init);
  const auto result = engine.run_interval({ring}, members, std::move(seeds), 20.0, rng);
  EXPECT_EQ(result.jobs_completed[0], 4);
  EXPECT_EQ(result.jobs_completed[2], 2);
  EXPECT_EQ(result.jobs_completed[4], 1);
}

TEST(RingEngine, TooShortIntervalMeansNoJobs) {
  const TinyWorld world;
  FlOptions opts;
  opts.local_epochs = 5;
  const auto ctx = world.context(opts);
  RingEngine engine(ctx);
  std::vector<std::size_t> members = {0, 1};
  std::vector<double> times(6, 5.0);
  Rng rng(53);
  const auto ring =
      sim::RingTopology::build(members, times, sim::RingOrder::kSmallToLarge, rng);
  std::vector<std::vector<float>> seeds(6);
  Rng init(59);
  for (auto& seed : seeds) seed = world.network.init_weights(init);
  const auto result = engine.run_interval({ring}, members, std::move(seeds), 3.0, rng);
  EXPECT_EQ(result.jobs_completed[0], 0);
  EXPECT_EQ(result.hops, 0);
}

TEST(RingEngine, RejectsDeviceInTwoRings) {
  const TinyWorld world;
  const auto ctx = world.context();
  RingEngine engine(ctx);
  std::vector<double> times(6, 5.0);
  Rng rng(61);
  const auto r1 =
      sim::RingTopology::build({0, 1}, times, sim::RingOrder::kSmallToLarge, rng);
  const auto r2 =
      sim::RingTopology::build({1, 2}, times, sim::RingOrder::kSmallToLarge, rng);
  std::vector<std::vector<float>> seeds(6);
  EXPECT_THROW(engine.run_interval({r1, r2}, {0, 1, 2}, std::move(seeds), 10.0, rng),
               CheckError);
}

TEST(Runner, RecordsHistoryAndTarget) {
  const TinyWorld world;
  FlOptions opts;
  opts.local_epochs = 2;
  opts.batch_size = 10;
  const auto ctx = world.context(opts);
  FedHiSynAlgo algorithm(ctx);
  ExperimentRunner runner(6, /*target=*/0.5f);
  int callbacks = 0;
  runner.set_on_round([&](const RoundRecord&) { ++callbacks; });
  const auto result = runner.run(algorithm);
  EXPECT_EQ(result.history.size(), 6u);
  EXPECT_EQ(callbacks, 6);
  EXPECT_EQ(result.algorithm, "FedHiSyn");
  // Comm grows monotonically.
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GT(result.history[i].comm_rounds, result.history[i - 1].comm_rounds);
  }
  // Tiny separable problem: the 50% target must be reached and recorded.
  ASSERT_TRUE(result.comm_to_target.has_value());
  EXPECT_GT(*result.comm_to_target, 0.0);
  ASSERT_TRUE(result.rounds_to_target.has_value());
  EXPECT_LE(*result.rounds_to_target, 6);
}

TEST(Runner, TableCellFormat) {
  ExperimentResult reached;
  reached.final_accuracy = 0.8164f;
  reached.comm_to_target = 23.2;
  EXPECT_EQ(reached.table_cell(), "24(81.64%)");
  ExperimentResult missed;
  missed.final_accuracy = 0.7493f;
  EXPECT_EQ(missed.table_cell(), "X(74.93%)");
}

TEST(Runner, EvalEveryReducesHistory) {
  const TinyWorld world;
  FlOptions opts;
  opts.local_epochs = 1;
  opts.batch_size = 20;
  const auto ctx = world.context(opts);
  FedHiSynAlgo algorithm(ctx);
  ExperimentRunner runner(7, 0.99f);
  runner.set_eval_every(3);
  const auto result = runner.run(algorithm);
  // Evaluated at rounds 3, 6 and the final round 7.
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.history[0].round, 3);
  EXPECT_EQ(result.history[2].round, 7);
}

TEST(Presets, BuildsEverySuite) {
  for (const char* name : {"mnist", "emnist", "cifar10", "cifar100"}) {
    BuildConfig config;
    config.dataset = name;
    config.scale.devices = 8;
    config.scale.train_samples_per_device = 20;
    config.scale.test_samples = 40;
    const auto built = build_experiment(config);
    EXPECT_EQ(built->fed.device_count(), 8u);
    EXPECT_EQ(built->fleet.size(), 8u);
    EXPECT_EQ(built->fed.train.size(), 160);
    EXPECT_TRUE(built->network->finalized());
    const auto ctx = built->context({});
    EXPECT_EQ(ctx.device_count(), 8u);
  }
}

TEST(Presets, CnnRequestedForImageSuite) {
  BuildConfig config;
  config.dataset = "cifar10";
  config.scale.devices = 4;
  config.scale.train_samples_per_device = 10;
  config.scale.test_samples = 20;
  config.use_cnn = true;
  const auto built = build_experiment(config);
  // conv, pool, conv, pool, dense, dense, dense: the ReLUs are folded into
  // the layers before them and the flatten is implicit, against the MLP's 3.
  EXPECT_EQ(built->network->layer_count(), 7u);
}

TEST(Presets, TargetsDefinedForAllSuites) {
  for (const char* name : {"mnist", "emnist", "cifar10", "cifar100"}) {
    const float t = target_accuracy(name);
    EXPECT_GT(t, 0.0f);
    EXPECT_LT(t, 1.0f);
  }
  EXPECT_THROW(target_accuracy("bogus"), CheckError);
}

TEST(Presets, ScalesDifferByMode) {
  const auto fast = default_scale("mnist", false);
  const auto full = default_scale("mnist", true);
  EXPECT_LT(fast.devices, full.devices);
  EXPECT_LT(fast.rounds, full.rounds);
  EXPECT_EQ(full.devices, 100u);  // the paper's fleet size
}

}  // namespace
}  // namespace fedhisyn::core
