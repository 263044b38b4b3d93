#include "core/fedhisyn_algo.hpp"

#include "cluster/kmeans.hpp"
#include "common/check.hpp"
#include "core/aggregate.hpp"

namespace fedhisyn::core {

FedHiSynAlgo::FedHiSynAlgo(const FlContext& ctx) : FlAlgorithm(ctx), engine_(ctx_) {}

void FedHiSynAlgo::run_round() {
  const auto participants = draw_participants();
  const std::size_t n = ctx_.device_count();
  const int epochs = ctx_.opts.local_epochs;

  // Response latency of each participant = its local-training time t_i,
  // which the server records (paper §4, Fig. 5).
  std::vector<double> all_times(n, 0.0);
  for (std::size_t d = 0; d < n; ++d) {
    all_times[d] = sim::local_training_time((*ctx_.fleet)[d], epochs);
  }
  std::vector<double> participant_times;
  participant_times.reserve(participants.size());
  for (const auto p : participants) participant_times.push_back(all_times[p]);

  // (2) Cluster participants into K classes by t_i.
  const auto clustering =
      cluster::kmeans_1d(participant_times, ctx_.opts.clusters, rng_);
  const auto groups = cluster::group_by_cluster(clustering);
  last_classes_ = groups.size();

  // (3) One ring per class, ordered by the configured policy (default
  // small-to-large, Observation 2) on the Eq. (5) metric M_i = t_i + D_i
  // (== t_i in the paper's equal-delay simplification).
  std::vector<double> metrics(n, 0.0);
  for (std::size_t d = 0; d < n; ++d) {
    metrics[d] = sim::ring_metric((*ctx_.fleet)[d], epochs);
  }
  std::vector<sim::RingTopology> rings;
  rings.reserve(groups.size());
  for (const auto& group : groups) {
    std::vector<std::size_t> members;
    members.reserve(group.size());
    for (const auto local_index : group) members.push_back(participants[local_index]);
    rings.push_back(
        sim::RingTopology::build(members, metrics, ctx_.opts.ring_order, rng_));
  }

  // (1)+(4) Broadcast the global model and run the interval.  The interval R
  // is the slowest participant's job so every class finishes at least one
  // job (the paper's round definition).
  double interval = 0.0;
  for (const auto p : participants) interval = std::max(interval, all_times[p]);
  std::vector<std::vector<float>> seeds(n);
  for (const auto p : participants) {
    seeds[p] = global_;
    comm_.record_server_download();
  }
  auto result = engine_.run_interval(rings, participants, std::move(seeds), interval, rng_);
  last_hops_ = result.hops;
  last_jobs_ = result.jobs_completed;
  comm_.record_device_to_device(static_cast<double>(result.hops));

  // (5) Synchronous upload + aggregation.
  std::vector<std::span<const float>> models;
  models.reserve(participants.size());
  for (const auto p : participants) {
    models.emplace_back(result.device_models[p]);
    comm_.record_server_upload();
  }
  std::vector<double> weights;
  switch (ctx_.opts.aggregation) {
    case AggregationRule::kUniform:
      weights = uniform_weights(models.size());
      break;
    case AggregationRule::kTimeWeighted: {
      // Eq. (10): weight by the class-mean local-training time.
      std::vector<double> class_mean(groups.size(), 0.0);
      for (std::size_t c = 0; c < groups.size(); ++c) {
        double sum = 0.0;
        for (const auto local_index : groups[c]) sum += participant_times[local_index];
        class_mean[c] = sum / static_cast<double>(groups[c].size());
      }
      std::vector<double> per_model(participants.size());
      for (std::size_t i = 0; i < participants.size(); ++i) {
        per_model[i] = class_mean[clustering.assignment[i]];
      }
      weights = time_weights(per_model);
      break;
    }
    case AggregationRule::kSampleWeighted: {
      // Not the paper's choice for FedHiSyn (see §4.3) but supported for the
      // ablation bench.
      std::vector<std::int64_t> sizes;
      sizes.reserve(participants.size());
      for (const auto p : participants) sizes.push_back(ctx_.fed->shards[p].size());
      weights = sample_weights(sizes);
      break;
    }
  }
  aggregate_models(models, weights, global_);
  ++rounds_completed_;
}

}  // namespace fedhisyn::core
