// Unit tests for src/data: synthetic generator statistics, IID/Dirichlet
// partition invariants, shard gather mechanics, divergence metric ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/divergence.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"

namespace fedhisyn::data {
namespace {

TEST(Synthetic, PresetsCoverPaperDatasets) {
  EXPECT_EQ(mnist_like().n_classes, 10);
  EXPECT_EQ(emnist_like().n_classes, 26);
  EXPECT_EQ(cifar10_like().n_classes, 10);
  EXPECT_EQ(cifar100_like().n_classes, 100);
  EXPECT_EQ(spec_by_name("cifar10").name, "cifar10");
  EXPECT_THROW(spec_by_name("imagenet"), CheckError);
}

TEST(Synthetic, DifficultyOrderingEncoded) {
  // The paper orders MNIST (easy) -> CIFAR100 (hard).  Difficulty here is
  // driven by class count and the separation-per-class budget: within the
  // 10-class suites the cifar10 stand-in has the smaller separation, and the
  // many-class suites carry label noise on top.
  EXPECT_GT(mnist_like().separation, cifar10_like().separation);
  EXPECT_GT(emnist_like().n_classes, mnist_like().n_classes);
  EXPECT_GT(cifar100_like().n_classes, cifar10_like().n_classes);
  EXPECT_GT(cifar100_like().label_noise, mnist_like().label_noise);
}

TEST(Synthetic, GenerateShapesAndLabels) {
  Rng rng(1);
  const auto spec = mnist_like();
  const auto split = generate(spec, 500, 200, rng);
  EXPECT_EQ(split.train.size(), 500);
  EXPECT_EQ(split.test.size(), 200);
  EXPECT_EQ(split.train.sample_dim(), 64);
  for (const auto label : split.train.y) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 10);
  }
}

TEST(Synthetic, ImageSuiteHasImageShape) {
  Rng rng(2);
  const auto split = generate(cifar10_like(), 50, 20, rng);
  ASSERT_EQ(split.train.x.rank(), 4u);
  EXPECT_EQ(split.train.x.dim(1), 3);
  EXPECT_EQ(split.train.x.dim(2), 8);
  EXPECT_EQ(split.train.x.dim(3), 8);
}

TEST(Synthetic, BalancedClassDraw) {
  Rng rng(3);
  const auto split = generate(mnist_like(), 1000, 100, rng);
  const auto hist = split.train.label_histogram();
  // i % n_classes assignment with 2% label noise keeps counts near 100.
  for (const auto count : hist) {
    EXPECT_GT(count, 80);
    EXPECT_LT(count, 120);
  }
}

/// FNV-1a over the bytes of a split's inputs and labels.
std::uint64_t split_digest(const SyntheticSplit& split) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  for (const Dataset* set : {&split.train, &split.test}) {
    mix(set->x.data(), static_cast<std::size_t>(set->x.numel()) * sizeof(float));
    mix(set->y.data(), set->y.size() * sizeof(std::int32_t));
  }
  return h;
}

TEST(Synthetic, LaptopSuitesCharacterization) {
  // The laptop scale of the mnist and cifar10 suites (20 devices x 40
  // samples, 500 test samples), pinned to exact bytes.
  Rng mnist_rng(42);
  EXPECT_EQ(split_digest(generate(mnist_like(), 800, 500, mnist_rng)),
            5209631634456905928ull);
  Rng cifar_rng(42);
  EXPECT_EQ(split_digest(generate(cifar10_like(), 800, 500, cifar_rng)),
            5534761582839952173ull);
}

TEST(Synthetic, DeterministicGivenSeed) {
  Rng a(7);
  Rng b(7);
  const auto s1 = generate(mnist_like(), 100, 50, a);
  const auto s2 = generate(mnist_like(), 100, 50, b);
  EXPECT_EQ(s1.train.y, s2.train.y);
  for (std::int64_t i = 0; i < s1.train.x.numel(); ++i) {
    ASSERT_FLOAT_EQ(s1.train.x.at(i), s2.train.x.at(i));
  }
}

TEST(Synthetic, TrainAndTestShareDistribution) {
  // Same prototypes: per-class train/test means should be close.
  Rng rng(11);
  const auto split = generate(mnist_like(), 2000, 2000, rng);
  const std::int64_t dim = split.train.sample_dim();
  auto class_mean = [&](const Dataset& set, int label) {
    std::vector<double> mean(static_cast<std::size_t>(dim), 0.0);
    int count = 0;
    for (std::int64_t i = 0; i < set.size(); ++i) {
      if (set.y[static_cast<std::size_t>(i)] != label) continue;
      const auto row = set.x.row(i);
      for (std::int64_t d = 0; d < dim; ++d) mean[static_cast<std::size_t>(d)] += row[static_cast<std::size_t>(d)];
      ++count;
    }
    for (auto& value : mean) value /= count;
    return mean;
  };
  const auto train_mean = class_mean(split.train, 0);
  const auto test_mean = class_mean(split.test, 0);
  double dist_sq = 0.0;
  double norm_sq = 0.0;
  for (std::size_t d = 0; d < train_mean.size(); ++d) {
    dist_sq += (train_mean[d] - test_mean[d]) * (train_mean[d] - test_mean[d]);
    norm_sq += train_mean[d] * train_mean[d];
  }
  EXPECT_LT(dist_sq, 0.25 * norm_sq);
}

TEST(PartitionIid, CoversAllSamplesOnce) {
  Rng rng(13);
  const auto split = generate(mnist_like(), 503, 50, rng);
  const auto shards = partition_iid(split.train, 10, rng);
  ASSERT_EQ(shards.size(), 10u);
  std::set<std::int64_t> seen;
  std::int64_t total = 0;
  for (const auto& shard : shards) {
    total += shard.size();
    for (const auto idx : shard.indices()) seen.insert(idx);
    // Near-equal sizes: 503/10 -> 50 or 51.
    EXPECT_GE(shard.size(), 50);
    EXPECT_LE(shard.size(), 51);
  }
  EXPECT_EQ(total, 503);
  EXPECT_EQ(seen.size(), 503u);
}

TEST(PartitionIid, ShardsAreLabelBalanced) {
  Rng rng(17);
  const auto split = generate(mnist_like(), 2000, 50, rng);
  const auto shards = partition_iid(split.train, 10, rng);
  const auto divs = per_device_divergence(split.train, shards);
  for (const auto d : divs) EXPECT_LT(d, 0.25);
}

class DirichletBeta : public ::testing::TestWithParam<double> {};

TEST_P(DirichletBeta, CoversAllSamplesAndMeetsMinimum) {
  const double beta = GetParam();
  Rng rng(19);
  const auto split = generate(mnist_like(), 2000, 50, rng);
  const auto shards = partition_dirichlet(split.train, 20, beta, rng, 2);
  std::set<std::int64_t> seen;
  for (const auto& shard : shards) {
    EXPECT_GE(shard.size(), 2);
    for (const auto idx : shard.indices()) seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(Betas, DirichletBeta, ::testing::Values(0.1, 0.3, 0.8, 10.0));

TEST(PartitionDirichlet, SkewGrowsAsBetaShrinks) {
  Rng rng(23);
  const auto split = generate(mnist_like(), 4000, 50, rng);
  const auto skewed = partition_dirichlet(split.train, 20, 0.1, rng);
  const auto mild = partition_dirichlet(split.train, 20, 10.0, rng);
  EXPECT_GT(label_divergence(split.train, skewed),
            2.0 * label_divergence(split.train, mild));
}

TEST(PartitionDirichlet, MoreSkewedThanIid) {
  Rng rng(29);
  const auto split = generate(mnist_like(), 3000, 50, rng);
  const auto iid = partition_iid(split.train, 15, rng);
  const auto dir = partition_dirichlet(split.train, 15, 0.3, rng);
  EXPECT_GT(label_divergence(split.train, dir), label_divergence(split.train, iid));
}

TEST(MakePartition, DispatchesOnConfig) {
  Rng rng(31);
  const auto split = generate(mnist_like(), 1000, 50, rng);
  PartitionConfig iid_cfg;
  iid_cfg.iid = true;
  PartitionConfig dir_cfg;
  dir_cfg.iid = false;
  dir_cfg.beta = 0.3;
  const auto a = make_partition(split.train, 10, iid_cfg, rng);
  const auto b = make_partition(split.train, 10, dir_cfg, rng);
  EXPECT_LT(label_divergence(split.train, a), label_divergence(split.train, b));
}

TEST(Shard, GatherRespectsOrderAndIndices) {
  Rng rng(37);
  const auto split = generate(mnist_like(), 100, 50, rng);
  Shard shard(&split.train, {5, 10, 15});
  auto order = shard.make_order();
  std::swap(order[0], order[2]);  // order = {2, 1, 0} over local indices
  Tensor bx;
  std::vector<std::int32_t> by;
  shard.gather(order, 0, 3, bx, by);
  EXPECT_EQ(by[0], split.train.y[15]);
  EXPECT_EQ(by[1], split.train.y[10]);
  EXPECT_EQ(by[2], split.train.y[5]);
  // Sample content matches the dataset rows.
  for (std::int64_t d = 0; d < split.train.sample_dim(); ++d) {
    ASSERT_FLOAT_EQ(bx.row(0)[static_cast<std::size_t>(d)],
                    split.train.x.row(15)[static_cast<std::size_t>(d)]);
  }
}

TEST(Shard, GatherBoundsChecked) {
  Rng rng(41);
  const auto split = generate(mnist_like(), 100, 50, rng);
  Shard shard(&split.train, {1, 2});
  const auto order = shard.make_order();
  Tensor bx;
  std::vector<std::int32_t> by;
  EXPECT_THROW(shard.gather(order, 0, 3, bx, by), CheckError);
}

TEST(Shard, RejectsOutOfRangeIndices) {
  Rng rng(43);
  const auto split = generate(mnist_like(), 10, 5, rng);
  EXPECT_THROW(Shard(&split.train, {99}), CheckError);
}

TEST(Divergence, ZeroForPerfectCopy) {
  // A single shard holding the whole set has the global distribution.
  Rng rng(47);
  const auto split = generate(mnist_like(), 500, 50, rng);
  std::vector<std::int64_t> all(500);
  std::iota(all.begin(), all.end(), 0);
  std::vector<Shard> shards;
  shards.emplace_back(&split.train, all);
  EXPECT_NEAR(label_divergence(split.train, shards), 0.0, 1e-12);
}

}  // namespace
}  // namespace fedhisyn::data
