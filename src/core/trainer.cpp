#include "core/trainer.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "nn/update.hpp"

namespace fedhisyn::core {

namespace {
/// The calling thread's step buffers, grown to the largest job it has run.
struct TrainScratch {
  nn::Workspace ws;
  Tensor batch_x;
  std::vector<std::int32_t> batch_y;
  std::vector<float> grad;
  std::vector<float> velocity;  // momentum buffer, reset every job
  std::vector<std::int64_t> order;
};
thread_local TrainScratch tl_scratch;
}  // namespace

TrainOutcome train_local(const nn::Network& network, std::span<float> weights,
                         const data::Shard& shard, int epochs, int batch_size, float lr,
                         UpdateKind kind, const UpdateExtras& extras, Rng& rng) {
  FEDHISYN_CHECK(epochs >= 1);
  FEDHISYN_CHECK(batch_size >= 1);
  FEDHISYN_CHECK(shard.size() >= 1);
  FEDHISYN_CHECK(static_cast<std::int64_t>(weights.size()) == network.param_count());
  if (kind == UpdateKind::kProx) {
    FEDHISYN_CHECK(extras.prox_anchor.size() == weights.size());
  }
  if (kind == UpdateKind::kScaffold) {
    FEDHISYN_CHECK(extras.c_local.size() == weights.size());
    FEDHISYN_CHECK(extras.c_global.size() == weights.size());
  }

  TrainScratch& scratch = tl_scratch;
  scratch.grad.resize(weights.size());
  if (kind == UpdateKind::kSgd && extras.momentum > 0.0f) {
    scratch.velocity.assign(weights.size(), 0.0f);
  }
  // Always reset to the identity permutation: results must depend only on
  // (weights, shard, rng), never on what this thread trained before —
  // otherwise the pool's job-to-thread mapping would leak into the output.
  scratch.order.resize(static_cast<std::size_t>(shard.size()));
  for (std::size_t i = 0; i < scratch.order.size(); ++i) {
    scratch.order[i] = static_cast<std::int64_t>(i);
  }

  const std::int64_t n = shard.size();
  double loss_total = 0.0;
  std::int64_t steps = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(scratch.order);
    for (std::int64_t start = 0; start < n; start += batch_size) {
      const std::int64_t count = std::min<std::int64_t>(batch_size, n - start);
      shard.gather(scratch.order, start, count, scratch.batch_x, scratch.batch_y);
      const float loss = network.loss_and_grad(
          weights, scratch.batch_x,
          std::span<const std::int32_t>(scratch.batch_y), scratch.grad, scratch.ws);
      switch (kind) {
        case UpdateKind::kSgd:
          if (extras.momentum > 0.0f) {
            nn::momentum_sgd_step(weights, scratch.grad, scratch.velocity, lr,
                                  extras.momentum);
          } else {
            nn::sgd_step(weights, scratch.grad, lr);
          }
          break;
        case UpdateKind::kProx:
          nn::prox_sgd_step(weights, scratch.grad, extras.prox_anchor, lr,
                            extras.prox_mu);
          break;
        case UpdateKind::kScaffold:
          nn::scaffold_step(weights, scratch.grad, extras.c_local, extras.c_global, lr);
          break;
      }
      loss_total += loss;
      ++steps;
    }
  }
  TrainOutcome outcome;
  outcome.steps = steps;
  outcome.mean_loss = steps > 0 ? static_cast<float>(loss_total / steps) : 0.0f;
  return outcome;
}

}  // namespace fedhisyn::core
