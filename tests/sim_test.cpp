// Unit tests for src/sim: fleet generators, ring topology invariants,
// event-queue ordering, communication accounting, participation sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/comm.hpp"
#include "sim/device.hpp"
#include "sim/events.hpp"
#include "sim/participation.hpp"
#include "sim/ring.hpp"

namespace fedhisyn::sim {
namespace {

TEST(Fleet, UniformEpochsRespectsPaperRange) {
  Rng rng(1);
  const auto fleet = make_fleet_uniform_epochs(200, rng, 5, 50);
  for (const auto& device : fleet) {
    // epoch_time = 50/e with e in [5, 50] -> time in [1, 10].
    EXPECT_GE(device.epoch_time, 1.0);
    EXPECT_LE(device.epoch_time, 10.0);
  }
  // Heterogeneity should actually materialise.
  const double worst = slowest_job_time(fleet, 5);
  EXPECT_GT(worst, 5.0 * 4.0);
}

TEST(Fleet, RatioFleetPinsExactExtremes) {
  Rng rng(2);
  for (const double h : {2.0, 5.0, 10.0, 20.0}) {
    const auto fleet = make_fleet_ratio(50, h, rng);
    const auto [min_it, max_it] = std::minmax_element(
        fleet.begin(), fleet.end(),
        [](const auto& a, const auto& b) { return a.epoch_time < b.epoch_time; });
    EXPECT_DOUBLE_EQ(min_it->epoch_time, 1.0);
    EXPECT_DOUBLE_EQ(max_it->epoch_time, h);
  }
}

TEST(Fleet, HomogeneousAllEqual) {
  const auto fleet = make_fleet_homogeneous(10, 2.5);
  for (const auto& device : fleet) EXPECT_DOUBLE_EQ(device.epoch_time, 2.5);
  EXPECT_DOUBLE_EQ(slowest_job_time(fleet, 4), 10.0);
}

TEST(Fleet, LocalTrainingTimeScalesWithEpochs) {
  DeviceProfile device;
  device.epoch_time = 3.0;
  EXPECT_DOUBLE_EQ(local_training_time(device, 5), 15.0);
  EXPECT_THROW(local_training_time(device, 0), CheckError);
}

TEST(Ring, SmallToLargeOrdersAscending) {
  std::vector<double> times = {9.0, 1.0, 5.0, 3.0};
  std::vector<std::size_t> members = {0, 1, 2, 3};
  Rng rng(3);
  const auto ring = RingTopology::build(members, times, RingOrder::kSmallToLarge, rng);
  const auto& ordered = ring.ordered_members();
  ASSERT_EQ(ordered.size(), 4u);
  for (std::size_t i = 0; i + 1 < ordered.size(); ++i) {
    EXPECT_LE(times[ordered[i]], times[ordered[i + 1]]);
  }
  // Paper: the slowest device connects back to the fastest.
  EXPECT_EQ(ring.successor(ordered.back()), ordered.front());
}

TEST(Ring, LargeToSmallOrdersDescending) {
  std::vector<double> times = {9.0, 1.0, 5.0, 3.0};
  std::vector<std::size_t> members = {0, 1, 2, 3};
  Rng rng(4);
  const auto ring = RingTopology::build(members, times, RingOrder::kLargeToSmall, rng);
  const auto& ordered = ring.ordered_members();
  for (std::size_t i = 0; i + 1 < ordered.size(); ++i) {
    EXPECT_GE(times[ordered[i]], times[ordered[i + 1]]);
  }
}

TEST(Ring, SuccessorCyclesThroughAllMembers) {
  std::vector<double> times(7, 1.0);
  std::vector<std::size_t> members = {2, 4, 6, 1, 3, 5, 0};
  Rng rng(5);
  const auto ring = RingTopology::build(members, times, RingOrder::kRandom, rng);
  std::set<std::size_t> visited;
  std::size_t current = members[0];
  for (std::size_t i = 0; i < members.size(); ++i) {
    visited.insert(current);
    current = ring.successor(current);
  }
  EXPECT_EQ(visited.size(), members.size());
  EXPECT_EQ(current, members[0]);  // full cycle
}

TEST(Ring, SingleMemberSelfLoop) {
  std::vector<double> times = {1.0, 2.0, 3.0};
  Rng rng(6);
  const auto ring = RingTopology::build({1}, times, RingOrder::kSmallToLarge, rng);
  EXPECT_EQ(ring.successor(1), 1u);
  EXPECT_FALSE(ring.contains(0));
  EXPECT_THROW(ring.successor(0), CheckError);
}

TEST(Ring, SubsetMembershipRespected) {
  std::vector<double> times = {1.0, 2.0, 3.0, 4.0, 5.0};
  Rng rng(7);
  const auto ring = RingTopology::build({0, 2, 4}, times, RingOrder::kSmallToLarge, rng);
  EXPECT_TRUE(ring.contains(0));
  EXPECT_FALSE(ring.contains(1));
  EXPECT_EQ(ring.successor(0), 2u);
  EXPECT_EQ(ring.successor(2), 4u);
  EXPECT_EQ(ring.successor(4), 0u);
}

TEST(Ring, Eq5MetricOrdersByTrainingTimePlusDelay) {
  // Two devices with equal epoch time but different outgoing link delays:
  // Eq. (5)'s M_i = t_i + D_i must decide the order.
  DeviceProfile a{0, 2.0, 0.0};
  DeviceProfile b{1, 2.0, 5.0};
  DeviceProfile c{2, 1.0, 0.5};
  std::vector<double> metrics = {ring_metric(a, 5), ring_metric(b, 5), ring_metric(c, 5)};
  EXPECT_DOUBLE_EQ(metrics[0], 10.0);
  EXPECT_DOUBLE_EQ(metrics[1], 15.0);
  EXPECT_DOUBLE_EQ(metrics[2], 5.5);
  Rng rng(8);
  const auto ring =
      RingTopology::build({0, 1, 2}, metrics, RingOrder::kSmallToLarge, rng);
  EXPECT_EQ(ring.ordered_members()[0], 2u);
  EXPECT_EQ(ring.ordered_members()[1], 0u);
  EXPECT_EQ(ring.ordered_members()[2], 1u);
}

TEST(Events, PopsInTimeOrder) {
  EventQueue queue;
  queue.schedule(3.0, 30);
  queue.schedule(1.0, 10);
  queue.schedule(2.0, 20);
  EXPECT_EQ(queue.pop().device, 10u);
  EXPECT_EQ(queue.pop().device, 20u);
  EXPECT_EQ(queue.pop().device, 30u);
  EXPECT_TRUE(queue.empty());
}

TEST(Events, FifoAmongEqualTimes) {
  EventQueue queue;
  queue.schedule(1.0, 1);
  queue.schedule(1.0, 2);
  queue.schedule(1.0, 3);
  EXPECT_EQ(queue.pop().device, 1u);
  EXPECT_EQ(queue.pop().device, 2u);
  EXPECT_EQ(queue.pop().device, 3u);
}

TEST(Events, ClockAdvancesMonotonically) {
  EventQueue queue;
  queue.schedule(5.0, 1);
  queue.schedule(2.0, 2);
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
  queue.pop();
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
  // Scheduling in the past must be rejected.
  EXPECT_THROW(queue.schedule(1.0, 3), CheckError);
  queue.pop();
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
}

TEST(Events, ResetClearsState) {
  EventQueue queue;
  queue.schedule(1.0, 1);
  queue.pop();
  queue.reset();
  EXPECT_TRUE(queue.empty());
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
  queue.schedule(0.5, 9);  // allowed again after reset
  EXPECT_EQ(queue.pop().device, 9u);
}

TEST(Comm, ServerUnitsMatchPaperAccounting) {
  CommTracker comm;
  // One FedAvg round with 10 participants: 10 down + 10 up.
  for (int i = 0; i < 10; ++i) {
    comm.record_server_download();
    comm.record_server_upload();
  }
  EXPECT_DOUBLE_EQ(comm.server_model_units(), 20.0);

  // SCAFFOLD round: everything counts double -> twice FedAvg's traffic.
  CommTracker scaffold;
  for (int i = 0; i < 10; ++i) {
    scaffold.record_server_download(2.0);
    scaffold.record_server_upload(2.0);
  }
  EXPECT_DOUBLE_EQ(scaffold.server_model_units(), 2.0 * comm.server_model_units());
}

TEST(Comm, DeviceToDeviceSeparateFromServer) {
  CommTracker comm;
  comm.record_device_to_device();
  comm.record_device_to_device();
  EXPECT_DOUBLE_EQ(comm.device_to_device_units(), 2.0);
  EXPECT_DOUBLE_EQ(comm.server_model_units(), 0.0);
  comm.reset();
  EXPECT_DOUBLE_EQ(comm.device_to_device_units(), 0.0);
}

class ParticipationLevels : public ::testing::TestWithParam<double> {};

TEST_P(ParticipationLevels, FrequencyTracksProbability) {
  const double p = GetParam();
  Rng rng(11);
  double total = 0.0;
  constexpr int kRounds = 300;
  for (int r = 0; r < kRounds; ++r) {
    total += static_cast<double>(sample_participants(100, p, rng).size());
  }
  EXPECT_NEAR(total / kRounds / 100.0, p, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Levels, ParticipationLevels, ::testing::Values(0.1, 0.5, 1.0));

TEST(Participation, NeverEmpty) {
  Rng rng(13);
  for (int r = 0; r < 100; ++r) {
    EXPECT_GE(sample_participants(5, 0.01, rng).size(), 2u);
  }
}

TEST(Participation, FullParticipationSelectsEveryone) {
  Rng rng(17);
  const auto selected = sample_participants(25, 1.0, rng);
  EXPECT_EQ(selected.size(), 25u);
}

}  // namespace
}  // namespace fedhisyn::sim
