#include "core/fedat.hpp"

#include <algorithm>
#include <numeric>

#include "cluster/kmeans.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/aggregate.hpp"

namespace fedhisyn::core {

FedATAlgo::FedATAlgo(const FlContext& ctx) : FlAlgorithm(ctx) {}

void FedATAlgo::build_tiers() {
  const std::size_t n = ctx_.device_count();
  std::vector<double> times(n);
  for (std::size_t d = 0; d < n; ++d) {
    times[d] = sim::local_training_time((*ctx_.fleet)[d], ctx_.opts.local_epochs);
  }
  const auto clustering = cluster::kmeans_1d(times, ctx_.opts.clusters, rng_);
  tier_members_ = cluster::group_by_cluster(clustering);
  tier_round_time_.assign(tier_members_.size(), 0.0);
  for (std::size_t t = 0; t < tier_members_.size(); ++t) {
    for (const auto member : tier_members_[t]) {
      tier_round_time_[t] = std::max(tier_round_time_[t], times[member]);
    }
  }
  tier_models_.assign(tier_members_.size(), global_);
  tier_updates_.assign(tier_members_.size(), 0);
  tiers_built_ = true;
}

void FedATAlgo::recombine_global() {
  // FedAT cross-tier weighting: slower tiers (fewer updates) weigh more.
  const std::int64_t total =
      std::accumulate(tier_updates_.begin(), tier_updates_.end(), std::int64_t{0});
  std::vector<double> raw(tier_models_.size());
  double sum = 0.0;
  for (std::size_t t = 0; t < tier_models_.size(); ++t) {
    raw[t] = static_cast<double>(total - tier_updates_[t] + 1);
    sum += raw[t];
  }
  for (auto& w : raw) w /= sum;
  std::vector<std::span<const float>> models;
  models.reserve(tier_models_.size());
  for (const auto& model : tier_models_) models.emplace_back(model);
  aggregate_models(models, raw, global_);
}

void FedATAlgo::run_round() {
  if (!tiers_built_) build_tiers();
  const double interval = round_duration();
  auto& pool = ParallelExecutor::current();

  // Each tier independently completes floor(interval / tier_round_time)
  // synchronous tier-rounds within the common interval.  Tier rounds are
  // processed tier-by-tier; cross-tier asynchrony is captured by the
  // recombination after every tier round.
  for (std::size_t t = 0; t < tier_members_.size(); ++t) {
    const int tier_rounds =
        std::max(1, static_cast<int>(interval / tier_round_time_[t]));
    for (int tr = 0; tr < tier_rounds; ++tr) {
      // Participation: each tier member may skip this tier round.
      std::vector<std::size_t> active;
      for (const auto member : tier_members_[t]) {
        if (rng_.bernoulli(ctx_.opts.participation)) active.push_back(member);
      }
      if (active.empty()) continue;

      std::vector<std::vector<float>> locals(active.size());
      std::vector<std::int64_t> cost(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) {
        cost[i] = local_steps(active[i], ctx_.opts.local_epochs);
      }
      const auto order = longest_job_first(cost);
      pool.parallel_for(active.size(), [&](std::size_t k) {
        const std::size_t i = order[k];
        const std::size_t device = active[i];
        Rng device_rng =
            job_stream(0x165667B1ull, 0xD3A2646Cull, device,
                       0xFD7046C5ull * static_cast<std::uint64_t>(tr + 1));
        locals[i] = global_;
        UpdateExtras extras;
        extras.momentum = ctx_.opts.momentum;
        train_local(*ctx_.network, locals[i], ctx_.fed->shards[device],
                    ctx_.opts.local_epochs, ctx_.opts.batch_size, ctx_.opts.lr,
                    UpdateKind::kSgd, extras, device_rng);
      });
      for (std::size_t i = 0; i < active.size(); ++i) {
        comm_.record_server_download();
        comm_.record_server_upload();
      }
      std::vector<std::span<const float>> models;
      std::vector<std::int64_t> sizes;
      for (std::size_t i = 0; i < active.size(); ++i) {
        models.emplace_back(locals[i]);
        sizes.push_back(ctx_.fed->shards[active[i]].size());
      }
      std::vector<float> tier_avg(global_.size());
      aggregate_models(models, sample_weights(sizes), tier_avg);
      tier_models_[t] = std::move(tier_avg);
      ++tier_updates_[t];
      recombine_global();
    }
  }
  ++rounds_completed_;
}

}  // namespace fedhisyn::core
