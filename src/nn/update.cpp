#include "nn/update.hpp"

#include "common/check.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn::nn {

// Each step runs its vector-plane entry once over the whole vector
// (tensor/gemm_kernel.hpp VecPlane spells out its per-element arithmetic).
void sgd_step(std::span<float> weights, std::span<const float> grad, float lr) {
  FEDHISYN_CHECK(weights.size() == grad.size());
  gemm_runtime_config().plane.sgd(weights.data(), grad.data(), lr,
                                  static_cast<std::int64_t>(weights.size()));
}

void prox_sgd_step(std::span<float> weights, std::span<const float> grad,
                   std::span<const float> anchor, float lr, float mu) {
  FEDHISYN_CHECK(weights.size() == grad.size());
  FEDHISYN_CHECK(weights.size() == anchor.size());
  gemm_runtime_config().plane.prox_sgd(weights.data(), grad.data(), anchor.data(), lr, mu,
                                       static_cast<std::int64_t>(weights.size()));
}

void momentum_sgd_step(std::span<float> weights, std::span<const float> grad,
                       std::span<float> velocity, float lr, float momentum) {
  FEDHISYN_CHECK(weights.size() == grad.size());
  FEDHISYN_CHECK(weights.size() == velocity.size());
  gemm_runtime_config().plane.momentum_sgd(weights.data(), grad.data(), velocity.data(), lr,
                                           momentum,
                                           static_cast<std::int64_t>(weights.size()));
}

void scaffold_step(std::span<float> weights, std::span<const float> grad,
                   std::span<const float> c_local, std::span<const float> c_global,
                   float lr) {
  FEDHISYN_CHECK(weights.size() == grad.size());
  FEDHISYN_CHECK(weights.size() == c_local.size());
  FEDHISYN_CHECK(weights.size() == c_global.size());
  gemm_runtime_config().plane.scaffold(weights.data(), grad.data(), c_local.data(),
                                       c_global.data(), lr,
                                       static_cast<std::int64_t>(weights.size()));
}

}  // namespace fedhisyn::nn
