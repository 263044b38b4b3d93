// Integration tests for the seven FL algorithms: construction via the
// registry, convergence on a small separable problem, communication
// accounting invariants, determinism, and the paper's qualitative claims on
// a miniature scale (FedHiSyn ring circulation mixes Non-IID knowledge).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "core/algorithm.hpp"
#include "core/decentral.hpp"
#include "core/registry.hpp"
#include "core/fedhisyn_algo.hpp"
#include "core/runner.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace fedhisyn::core {
namespace {

/// Small world shared by the integration tests: 10 devices, 4-class
/// separable data, heterogeneous fleet (1x..4x).
struct SmallWorld {
  data::FederatedData fed;
  nn::Network network;
  sim::Fleet fleet;

  explicit SmallWorld(bool iid, std::uint64_t seed = 5)
      : network(nn::make_mlp(16, 4, {16})) {
    Rng rng(seed);
    data::SyntheticSpec spec;
    spec.name = "tiny";
    spec.n_classes = 4;
    spec.width = 16;
    spec.separation = 3.0;
    spec.noise = 0.8;
    spec.nuisance = 0.2;
    auto split = data::generate(spec, 400, 200, rng);
    fed.train = std::move(split.train);
    fed.test = std::move(split.test);
    data::PartitionConfig pc;
    pc.iid = iid;
    pc.beta = 0.3;
    fed.shards = data::make_partition(fed.train, 10, pc, rng);
    fleet.resize(10);
    for (std::size_t i = 0; i < 10; ++i) {
      fleet[i] = {i, 1.0 + 3.0 * static_cast<double>(i) / 9.0};
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

FlOptions fast_opts() {
  FlOptions opts;
  opts.local_epochs = 2;
  opts.batch_size = 20;
  opts.clusters = 3;
  return opts;
}

TEST(LongestJobFirst, DescendingCostTiesByIndex) {
  const std::vector<std::int64_t> costs = {3, 9, 3, 1, 9, 0, 3};
  EXPECT_EQ(longest_job_first(costs), (std::vector<std::size_t>{1, 4, 0, 2, 6, 3, 5}));
  EXPECT_TRUE(longest_job_first(std::vector<std::int64_t>{}).empty());
  // Equal costs keep index order.
  EXPECT_EQ(longest_job_first(std::vector<std::int64_t>(4, 2)),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Factory, BuildsEveryTable1Method) {
  const SmallWorld world(true);
  const auto ctx = world.context(fast_opts());
  for (const auto& name : table1_methods()) {
    const auto algorithm = make_algorithm(name, ctx);
    ASSERT_NE(algorithm, nullptr);
    EXPECT_EQ(algorithm->name(), name);
  }
  EXPECT_THROW(make_algorithm("FedBogus", ctx), CheckError);
}

class AllMethods : public ::testing::TestWithParam<std::string> {};

TEST_P(AllMethods, ConvergesOnSeparableIidProblem) {
  const SmallWorld world(true);
  const auto ctx = world.context(fast_opts());
  auto algorithm = make_algorithm(GetParam(), ctx);
  const float before = algorithm->evaluate_test_accuracy();
  for (int round = 0; round < 8; ++round) algorithm->run_round();
  const float after = algorithm->evaluate_test_accuracy();
  EXPECT_GT(after, before + 0.2f) << GetParam();
  EXPECT_GT(after, 0.6f) << GetParam();
}

TEST_P(AllMethods, CommunicationGrowsEveryRound) {
  const SmallWorld world(true);
  const auto ctx = world.context(fast_opts());
  auto algorithm = make_algorithm(GetParam(), ctx);
  double previous = 0.0;
  for (int round = 0; round < 3; ++round) {
    algorithm->run_round();
    const double units = algorithm->comm().server_model_units();
    EXPECT_GT(units, previous) << GetParam();
    previous = units;
  }
}

TEST_P(AllMethods, DeterministicAcrossIdenticalRuns) {
  const SmallWorld world(false);
  const auto ctx = world.context(fast_opts());
  auto a = make_algorithm(GetParam(), ctx);
  auto b = make_algorithm(GetParam(), ctx);
  for (int round = 0; round < 2; ++round) {
    a->run_round();
    b->run_round();
  }
  const auto wa = a->global_weights();
  const auto wb = b->global_weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    ASSERT_FLOAT_EQ(wa[i], wb[i]) << GetParam() << " diverged at " << i;
  }
}

TEST_P(AllMethods, PartialParticipationRuns) {
  const SmallWorld world(false);
  auto opts = fast_opts();
  opts.participation = 0.5;
  opts.clusters = 2;
  const auto ctx = world.context(opts);
  auto algorithm = make_algorithm(GetParam(), ctx);
  for (int round = 0; round < 3; ++round) algorithm->run_round();
  EXPECT_EQ(algorithm->rounds_completed(), 3);
  EXPECT_GT(algorithm->comm().server_model_units(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Table1Methods, AllMethods,
                         ::testing::Values("FedHiSyn", "FedAvg", "TFedAvg", "TAFedAvg",
                                           "FedProx", "FedAT", "SCAFFOLD"));

TEST(FedHiSyn, PerRoundServerCostMatchesFedAvg) {
  // FedHiSyn's whole point: per round it moves exactly |S| down + |S| up,
  // like FedAvg — the savings come from needing fewer rounds.
  const SmallWorld world(true);
  const auto ctx = world.context(fast_opts());
  FedHiSynAlgo fedhisyn(ctx);
  fedhisyn.run_round();
  EXPECT_DOUBLE_EQ(fedhisyn.comm().server_downloads(), 10.0);
  EXPECT_DOUBLE_EQ(fedhisyn.comm().server_uploads(), 10.0);
  // And the ring produced device-to-device traffic FedAvg doesn't have.
  EXPECT_GT(fedhisyn.comm().device_to_device_units(), 0.0);
}

TEST(FedHiSyn, FastDevicesCompleteMoreJobsInRound) {
  const SmallWorld world(true);
  auto opts = fast_opts();
  opts.clusters = 3;
  const auto ctx = world.context(opts);
  FedHiSynAlgo fedhisyn(ctx);
  fedhisyn.run_round();
  const auto& jobs = fedhisyn.last_jobs_completed();
  // Device 0 (fastest, 1.0) vs device 9 (slowest, 4.0): 4x the jobs.
  EXPECT_GT(jobs[0], jobs[9]);
  EXPECT_GE(jobs[9], 1);  // the interval covers the slowest device's job
  EXPECT_LE(fedhisyn.last_class_count(), 3u);
}

TEST(FedHiSyn, TimeWeightedAggregationRuns) {
  const SmallWorld world(false);
  auto opts = fast_opts();
  opts.aggregation = AggregationRule::kTimeWeighted;
  const auto ctx = world.context(opts);
  FedHiSynAlgo fedhisyn(ctx);
  for (int round = 0; round < 3; ++round) fedhisyn.run_round();
  EXPECT_GT(fedhisyn.evaluate_test_accuracy(), 0.3f);
}

TEST(FedHiSyn, SingleClusterDegeneratesGracefully) {
  const SmallWorld world(true);
  auto opts = fast_opts();
  opts.clusters = 1;
  const auto ctx = world.context(opts);
  FedHiSynAlgo fedhisyn(ctx);
  fedhisyn.run_round();
  EXPECT_EQ(fedhisyn.last_class_count(), 1u);
}

TEST(FedHiSyn, ClustersCappedByParticipants) {
  const SmallWorld world(true);
  auto opts = fast_opts();
  opts.clusters = 50;  // more clusters than devices
  const auto ctx = world.context(opts);
  FedHiSynAlgo fedhisyn(ctx);
  fedhisyn.run_round();
  EXPECT_LE(fedhisyn.last_class_count(), 10u);
}

TEST(Decentral, ModeNamesDistinct) {
  EXPECT_STREQ(decentral_mode_name(DecentralMode::kNoComm), "no-comm");
  EXPECT_STREQ(decentral_mode_name(DecentralMode::kRing), "ring");
  EXPECT_STREQ(decentral_mode_name(DecentralMode::kRingAvg), "ring+avg");
}

class DecentralModes : public ::testing::TestWithParam<DecentralMode> {};

TEST_P(DecentralModes, ImprovesMeanDeviceAccuracy) {
  SmallWorld world(true);
  world.fleet = sim::make_fleet_homogeneous(10);  // Fig. 2 setting
  const auto ctx = world.context(fast_opts());
  DecentralHomogeneous algorithm(ctx, GetParam());
  const float before = algorithm.evaluate_test_accuracy();
  for (int round = 0; round < 6; ++round) algorithm.run_round();
  EXPECT_GT(algorithm.evaluate_test_accuracy(), before + 0.15f);
}

INSTANTIATE_TEST_SUITE_P(Modes, DecentralModes,
                         ::testing::Values(DecentralMode::kNoComm, DecentralMode::kRandom,
                                           DecentralMode::kRandomAvg, DecentralMode::kRing,
                                           DecentralMode::kRingAvg));

TEST(Decentral, RingBeatsNoCommOnNonIid) {
  // Observation 1 in miniature: with label-skewed shards, circulating models
  // sees more of the label space than training alone.
  SmallWorld ring_world(false, 11);
  ring_world.fleet = sim::make_fleet_homogeneous(10);
  SmallWorld none_world(false, 11);
  none_world.fleet = sim::make_fleet_homogeneous(10);
  auto opts = fast_opts();
  opts.local_epochs = 2;
  DecentralHomogeneous ring(ring_world.context(opts), DecentralMode::kRing);
  DecentralHomogeneous none(none_world.context(opts), DecentralMode::kNoComm);
  for (int round = 0; round < 10; ++round) {
    ring.run_round();
    none.run_round();
  }
  EXPECT_GT(ring.evaluate_test_accuracy(), none.evaluate_test_accuracy());
}

TEST(Decentral, RingEngineVariantRunsWithClusters) {
  SmallWorld world(false);
  auto opts = fast_opts();
  opts.clusters = 2;
  const auto ctx = world.context(opts);
  DecentralRing algorithm(ctx);
  for (int round = 0; round < 3; ++round) algorithm.run_round();
  const float all = algorithm.evaluate_test_accuracy();
  const float fastest = algorithm.fastest_class_accuracy();
  EXPECT_GT(all, 0.25f);
  EXPECT_GT(fastest, 0.25f);
  EXPECT_GT(algorithm.comm().device_to_device_units(), 0.0);
}

TEST(Decentral, D2dTrafficButNoServerTraffic) {
  SmallWorld world(true);
  world.fleet = sim::make_fleet_homogeneous(10);
  const auto ctx = world.context(fast_opts());
  DecentralHomogeneous algorithm(ctx, DecentralMode::kRing);
  algorithm.run_round();
  EXPECT_DOUBLE_EQ(algorithm.comm().server_model_units(), 0.0);
  EXPECT_DOUBLE_EQ(algorithm.comm().device_to_device_units(), 10.0);
}

TEST(Scaffold, CostsTwicePerRound) {
  const SmallWorld world(true);
  const auto ctx = world.context(fast_opts());
  auto scaffold = make_algorithm("SCAFFOLD", ctx);
  scaffold->run_round();
  // 10 participants, 2 units each way.
  EXPECT_DOUBLE_EQ(scaffold->comm().server_model_units(), 40.0);
}

TEST(TAFedAvg, FastDevicesUploadMoreOften) {
  const SmallWorld world(true);
  const auto ctx = world.context(fast_opts());
  auto async = make_algorithm("TAFedAvg", ctx);
  async->run_round();
  // Fleet speeds 1..4, job = 2 epochs: slowest job 8.0 = interval; the
  // fastest device (epoch 1.0, job 2.0) can upload 4 times -> strictly more
  // uploads than |S|.
  EXPECT_GT(async->comm().server_uploads(), 10.0);
}

TEST(FedAT, MoreServerTrafficThanFedAvgPerRound) {
  const SmallWorld world(true);
  const auto ctx = world.context(fast_opts());
  auto fedat = make_algorithm("FedAT", ctx);
  auto fedavg = make_algorithm("FedAvg", ctx);
  fedat->run_round();
  fedavg->run_round();
  EXPECT_GT(fedat->comm().server_model_units(),
            fedavg->comm().server_model_units());
}

}  // namespace
}  // namespace fedhisyn::core
