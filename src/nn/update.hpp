// Per-step weight update rules for the FL algorithms.
//
//   sgd_step       — plain SGD (FedAvg family, FedHiSyn, FedAT tiers)
//   prox_sgd_step  — FedProx: adds mu * (w - w_anchor) to the gradient
//   scaffold_step  — SCAFFOLD: corrects the gradient with control variates
//                    (g - c_local + c_global)
//
// Each loop runs in the selected variant's vector plane
// (tensor/gemm_kernel.hpp VecPlane), serially on the calling thread.
#pragma once

#include <span>

namespace fedhisyn::nn {

/// w -= lr * g
void sgd_step(std::span<float> weights, std::span<const float> grad, float lr);

/// w -= lr * (g + mu * (w - anchor))   — FedProx proximal term.
void prox_sgd_step(std::span<float> weights, std::span<const float> grad,
                   std::span<const float> anchor, float lr, float mu);

/// w -= lr * (g - c_local + c_global)  — SCAFFOLD option II correction.
void scaffold_step(std::span<float> weights, std::span<const float> grad,
                   std::span<const float> c_local, std::span<const float> c_global,
                   float lr);

/// Heavy-ball momentum: v = momentum * v + g; w -= lr * v.  The velocity
/// buffer is caller-owned (one per training job, zero-initialised).
void momentum_sgd_step(std::span<float> weights, std::span<const float> grad,
                       std::span<float> velocity, float lr, float momentum);

}  // namespace fedhisyn::nn
