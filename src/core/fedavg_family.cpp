#include "core/fedavg_family.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/aggregate.hpp"

namespace fedhisyn::core {

FedAvgFamily::FedAvgFamily(const FlContext& ctx, FedAvgVariant variant)
    : FlAlgorithm(ctx), variant_(variant) {}

std::string FedAvgFamily::name() const {
  switch (variant_) {
    case FedAvgVariant::kFedAvg: return "FedAvg";
    case FedAvgVariant::kTFedAvg: return "TFedAvg";
    case FedAvgVariant::kFedProx: return "FedProx";
  }
  return "?";
}

int FedAvgFamily::epochs_for_device(std::size_t device, double interval) const {
  if (variant_ == FedAvgVariant::kTFedAvg) return ctx_.opts.local_epochs;
  // FedAvg / FedProx: the maximum achievable epochs within the round.
  const double epoch_time = (*ctx_.fleet)[device].epoch_time;
  const int achievable = static_cast<int>(std::floor(interval / epoch_time));
  return std::max(1, achievable);
}

void FedAvgFamily::run_round() {
  const auto participants = draw_participants();
  const double interval = round_duration();

  // Per-participant training, embarrassingly parallel: every device starts
  // from the same global snapshot.  Determinism: per-device Rng derived from
  // (seed, round, device id), independent of thread schedule.
  std::vector<std::vector<float>> locals(participants.size());
  auto& pool = ParallelExecutor::current();
  std::vector<std::int64_t> cost(participants.size());
  for (std::size_t i = 0; i < participants.size(); ++i) {
    cost[i] = local_steps(participants[i], epochs_for_device(participants[i], interval));
  }
  const auto order = longest_job_first(cost);

  pool.parallel_for(participants.size(), [&](std::size_t k) {
    const std::size_t i = order[k];
    const std::size_t device = participants[i];
    Rng device_rng = job_stream(0x517CC1B7ull, 0x2545F491ull, device, 0);
    locals[i] = global_;
    UpdateExtras extras;
    extras.momentum = ctx_.opts.momentum;
    UpdateKind kind = UpdateKind::kSgd;
    if (variant_ == FedAvgVariant::kFedProx) {
      kind = UpdateKind::kProx;
      extras.prox_anchor = global_;
      extras.prox_mu = ctx_.opts.prox_mu;
    }
    train_local(*ctx_.network, locals[i], ctx_.fed->shards[device],
                epochs_for_device(device, interval), ctx_.opts.batch_size, ctx_.opts.lr,
                kind, extras, device_rng);
  });

  for (std::size_t i = 0; i < participants.size(); ++i) {
    comm_.record_server_download();
    comm_.record_server_upload();
  }

  std::vector<std::span<const float>> models;
  std::vector<std::int64_t> sizes;
  models.reserve(participants.size());
  sizes.reserve(participants.size());
  for (std::size_t i = 0; i < participants.size(); ++i) {
    models.emplace_back(locals[i]);
    sizes.push_back(ctx_.fed->shards[participants[i]].size());
  }
  const auto weights = sample_weights(sizes);
  aggregate_models(models, weights, global_);
  ++rounds_completed_;
}

}  // namespace fedhisyn::core
