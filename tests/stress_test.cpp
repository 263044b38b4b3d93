// Property / stress tests across modules: randomized event-queue ordering,
// FIFO delivery under ring link delays, partitioner feasibility limits, and
// degenerate tensor shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/ring_engine.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "sim/events.hpp"
#include "tensor/gemm.hpp"

namespace fedhisyn {
namespace {

TEST(EventQueueStress, RandomInterleavingStaysSorted) {
  // Property: regardless of the schedule/pop interleaving, popped times are
  // non-decreasing and every scheduled event is eventually delivered.
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    sim::EventQueue queue;
    std::size_t scheduled = 0;
    std::size_t popped = 0;
    double last_time = 0.0;
    for (int op = 0; op < 500; ++op) {
      const bool do_schedule = queue.empty() || rng.bernoulli(0.55);
      if (do_schedule) {
        queue.schedule(queue.now() + rng.uniform(0.0, 10.0), scheduled);
        ++scheduled;
      } else {
        const auto event = queue.pop();
        ASSERT_GE(event.time, last_time);
        last_time = event.time;
        ++popped;
      }
    }
    while (!queue.empty()) {
      const auto event = queue.pop();
      ASSERT_GE(event.time, last_time);
      last_time = event.time;
      ++popped;
    }
    EXPECT_EQ(scheduled, popped);
  }
}

TEST(EventQueueStress, ManyEqualTimesPreserveFifo) {
  sim::EventQueue queue;
  for (std::size_t i = 0; i < 200; ++i) queue.schedule(1.0, i);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(queue.pop().device, i);
  }
}

TEST(RingDelayStress, CirculationProgressesUnderMixedDelays) {
  // Mixed zero and positive link delays in one ring must neither deadlock
  // nor lose determinism.
  Rng rng(3);
  data::SyntheticSpec spec;
  spec.name = "t";
  spec.n_classes = 3;
  spec.width = 8;
  spec.separation = 3.0;
  auto split = data::generate(spec, 90, 30, rng);
  data::FederatedData fed;
  fed.train = std::move(split.train);
  fed.test = std::move(split.test);
  fed.shards = data::partition_iid(fed.train, 6, rng);
  const auto network = nn::make_mlp(8, 3, {8});
  sim::Fleet fleet(6);
  for (std::size_t i = 0; i < 6; ++i) {
    fleet[i] = {i, 1.0, /*link_delay=*/i % 2 == 0 ? 0.0 : 0.25};
  }
  core::FlContext ctx;
  ctx.network = &network;
  ctx.fed = &fed;
  ctx.fleet = &fleet;
  ctx.opts.local_epochs = 1;
  ctx.opts.batch_size = 15;

  auto run_once = [&]() {
    core::RingEngine engine(ctx);
    std::vector<std::size_t> members = {0, 1, 2, 3, 4, 5};
    std::vector<double> times(6, 1.0);
    Rng topo_rng(5);
    const auto ring =
        sim::RingTopology::build(members, times, sim::RingOrder::kSmallToLarge, topo_rng);
    std::vector<std::vector<float>> seeds(6);
    Rng init(7);
    for (auto& seed : seeds) seed = network.init_weights(init);
    Rng run_rng(9);
    return engine.run_interval({ring}, members, std::move(seeds), 5.0, run_rng);
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  EXPECT_GT(r1.hops, 0);
  for (std::size_t d = 0; d < 6; ++d) {
    EXPECT_EQ(r1.jobs_completed[d], r2.jobs_completed[d]);
    ASSERT_EQ(r1.device_models[d], r2.device_models[d]) << "device " << d;
  }
}

TEST(PartitionStress, DirichletThrowsWhenInfeasible) {
  // 10 devices x min 5 samples = 50 > 30 available -> must throw, not hang.
  Rng rng(11);
  data::SyntheticSpec spec;
  spec.name = "t";
  spec.n_classes = 3;
  spec.width = 4;
  auto split = data::generate(spec, 30, 10, rng);
  EXPECT_THROW(data::partition_dirichlet(split.train, 10, 0.3, rng, /*min_samples=*/5),
               CheckError);
}

TEST(PartitionStress, ManyDevicesFewSamplesEachStillCovers) {
  Rng rng(13);
  data::SyntheticSpec spec;
  spec.name = "t";
  spec.n_classes = 5;
  spec.width = 4;
  auto split = data::generate(spec, 400, 10, rng);
  const auto shards = data::partition_dirichlet(split.train, 100, 0.3, rng, 1);
  std::int64_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  EXPECT_EQ(total, 400);
}

TEST(GemmStress, RandomShapeSweepAgainstReference) {
  Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    const auto m = static_cast<std::int64_t>(1 + rng.uniform_index(40));
    const auto k = static_cast<std::int64_t>(1 + rng.uniform_index(40));
    const auto n = static_cast<std::int64_t>(1 + rng.uniform_index(40));
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& x : a) x = static_cast<float>(rng.normal());
    for (auto& x : b) x = static_cast<float>(rng.normal());
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemm(a, b, c, m, k, n);
    // Spot-check 5 random cells against a scalar dot product.
    for (int probe = 0; probe < 5; ++probe) {
      const auto i = static_cast<std::int64_t>(rng.uniform_index(static_cast<std::uint64_t>(m)));
      const auto j = static_cast<std::int64_t>(rng.uniform_index(static_cast<std::uint64_t>(n)));
      double ref = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        ref += static_cast<double>(a[static_cast<std::size_t>(i * k + p)]) *
               b[static_cast<std::size_t>(p * n + j)];
      }
      ASSERT_NEAR(c[static_cast<std::size_t>(i * n + j)], ref,
                  1e-3 * (std::abs(ref) + 1.0))
          << m << "x" << k << "x" << n;
    }
  }
}

TEST(NetworkStress, RejectsMismatchedInput) {
  const auto net = nn::make_mlp(10, 3, {8});
  Rng rng(19);
  const auto weights = net.init_weights(rng);
  Tensor wrong({4, 7});  // 7 != 10 input features
  nn::Workspace ws;
  EXPECT_THROW(net.forward(weights, wrong, ws), CheckError);
  std::vector<float> short_weights(weights.size() - 1);
  Tensor right({4, 10});
  EXPECT_THROW(net.forward(short_weights, right, ws), CheckError);
}

}  // namespace
}  // namespace fedhisyn
