#include "core/decentral.hpp"

#include <algorithm>

#include "cluster/kmeans.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/aggregate.hpp"
#include "tensor/ops.hpp"

namespace fedhisyn::core {

const char* decentral_mode_name(DecentralMode mode) {
  switch (mode) {
    case DecentralMode::kNoComm: return "no-comm";
    case DecentralMode::kRandom: return "random";
    case DecentralMode::kRandomAvg: return "random+avg";
    case DecentralMode::kRing: return "ring";
    case DecentralMode::kRingAvg: return "ring+avg";
  }
  return "?";
}

namespace {
/// Mean per-device accuracy on the shared test set.
float mean_device_accuracy(const FlContext& ctx,
                           const std::vector<std::vector<float>>& models,
                           const std::vector<std::size_t>& devices) {
  FEDHISYN_CHECK(!devices.empty());
  const auto& test = ctx.fed->test;
  // Per-device accuracies land in their own slots and are summed in index
  // order afterwards, so the reduction is bit-identical for any thread count
  // (an OpenMP-style racy reduction would not be).
  std::vector<double> accuracies(devices.size(), 0.0);
  ParallelExecutor::current().parallel_for(devices.size(), [&](std::size_t i) {
    accuracies[i] = ctx.network->accuracy(models[devices[i]], test.x,
                                          std::span<const std::int32_t>(test.y));
  });
  double total = 0.0;
  for (const auto accuracy : accuracies) total += accuracy;
  return static_cast<float>(total / static_cast<double>(devices.size()));
}
}  // namespace

// ---------------------------------------------------------------- Fig. 2 --

DecentralHomogeneous::DecentralHomogeneous(const FlContext& ctx, DecentralMode mode)
    : FlAlgorithm(ctx), mode_(mode) {
  const std::size_t n = ctx_.device_count();
  device_models_.assign(n, global_);
  if (mode_ == DecentralMode::kRing || mode_ == DecentralMode::kRingAvg) {
    std::vector<std::size_t> members(n);
    for (std::size_t d = 0; d < n; ++d) members[d] = d;
    std::vector<double> times(n);
    for (std::size_t d = 0; d < n; ++d) times[d] = (*ctx_.fleet)[d].epoch_time;
    // Homogeneous fleet: ordering is immaterial; a random fixed ring matches
    // the paper's Observation-1 setup.
    ring_ = sim::RingTopology::build(members, times, sim::RingOrder::kRandom, rng_);
  }
}

std::string DecentralHomogeneous::name() const {
  return std::string("Decentral/") + decentral_mode_name(mode_);
}

void DecentralHomogeneous::run_round() {
  const std::size_t n = ctx_.device_count();

  // (1) Everyone trains one job on its current model.
  ParallelExecutor::current().parallel_for(n, [&](std::size_t d) {
    Rng device_rng = job_stream(0xBF58476Dull, 0x94D049BBull, d, 0);
    UpdateExtras extras;
    extras.momentum = ctx_.opts.momentum;
    train_local(*ctx_.network, device_models_[d], ctx_.fed->shards[d],
                ctx_.opts.local_epochs, ctx_.opts.batch_size, ctx_.opts.lr,
                UpdateKind::kSgd, extras, device_rng);
  });

  // (2) Communication step.
  if (mode_ == DecentralMode::kNoComm) {
    ++rounds_completed_;
    return;
  }
  std::vector<std::size_t> source(n);
  if (mode_ == DecentralMode::kRandom || mode_ == DecentralMode::kRandomAvg) {
    // Random cyclic permutation: every device receives exactly one model.
    std::vector<std::size_t> perm(n);
    for (std::size_t d = 0; d < n; ++d) perm[d] = d;
    rng_.shuffle(perm);
    for (std::size_t i = 0; i < n; ++i) source[perm[(i + 1) % n]] = perm[i];
  } else {
    for (std::size_t d = 0; d < n; ++d) {
      // device d receives from its ring predecessor, i.e. d = successor(src).
      // Invert by scanning once (n is small).
      source[ring_.successor(d)] = d;
    }
  }
  const bool average =
      mode_ == DecentralMode::kRandomAvg || mode_ == DecentralMode::kRingAvg;
  std::vector<std::vector<float>> next(n);
  for (std::size_t d = 0; d < n; ++d) {
    const auto& received = device_models_[source[d]];
    comm_.record_device_to_device();
    if (average) {
      next[d].resize(received.size());
      for (std::size_t j = 0; j < received.size(); ++j) {
        next[d][j] = 0.5f * (received[j] + device_models_[d][j]);
      }
    } else {
      next[d] = received;  // direct use (paper §4.2)
    }
  }
  device_models_ = std::move(next);
  ++rounds_completed_;
}

float DecentralHomogeneous::evaluate_test_accuracy() {
  std::vector<std::size_t> all(ctx_.device_count());
  for (std::size_t d = 0; d < all.size(); ++d) all[d] = d;
  return mean_device_accuracy(ctx_, device_models_, all);
}

std::span<const float> DecentralHomogeneous::global_weights() const {
  std::vector<std::span<const float>> models;
  models.reserve(device_models_.size());
  for (const auto& model : device_models_) models.emplace_back(model);
  mean_model_.resize(global_.size());
  weighted_sum(models, uniform_weights(models.size()), mean_model_);
  return mean_model_;
}

// ------------------------------------------------------------ Figs. 3, 4 --

DecentralRing::DecentralRing(const FlContext& ctx) : FlAlgorithm(ctx), engine_(ctx_) {
  device_models_.assign(ctx_.device_count(), global_);
}

void DecentralRing::build_topology() {
  const std::size_t n = ctx_.device_count();
  all_devices_.resize(n);
  for (std::size_t d = 0; d < n; ++d) all_devices_[d] = d;
  std::vector<double> times(n);
  for (std::size_t d = 0; d < n; ++d) {
    times[d] = sim::local_training_time((*ctx_.fleet)[d], ctx_.opts.local_epochs);
  }
  const auto clustering = cluster::kmeans_1d(times, ctx_.opts.clusters, rng_);
  const auto groups = cluster::group_by_cluster(clustering);
  rings_.clear();
  for (const auto& group : groups) {
    std::vector<std::size_t> members(group.begin(), group.end());
    rings_.push_back(
        sim::RingTopology::build(members, times, ctx_.opts.ring_order, rng_));
  }
  // Cluster 0 is the fastest (kmeans_1d sorts centroids ascending).
  fastest_class_.assign(groups.front().begin(), groups.front().end());
  topology_built_ = true;
}

void DecentralRing::run_round() {
  if (!topology_built_) build_topology();
  const double interval = round_duration();
  auto result = engine_.run_interval(rings_, all_devices_, std::move(device_models_),
                                     interval, rng_);
  device_models_ = std::move(result.device_models);
  for (std::int64_t h = 0; h < result.hops; ++h) comm_.record_device_to_device();
  ++rounds_completed_;
}

float DecentralRing::evaluate_test_accuracy() {
  return mean_device_accuracy(ctx_, device_models_, all_devices_);
}

float DecentralRing::fastest_class_accuracy() {
  if (!topology_built_) build_topology();
  return mean_device_accuracy(ctx_, device_models_, fastest_class_);
}

std::span<const float> DecentralRing::global_weights() const {
  std::vector<std::span<const float>> models;
  models.reserve(device_models_.size());
  for (const auto& model : device_models_) models.emplace_back(model);
  mean_model_.resize(global_.size());
  weighted_sum(models, uniform_weights(models.size()), mean_model_);
  return mean_model_;
}

}  // namespace fedhisyn::core
