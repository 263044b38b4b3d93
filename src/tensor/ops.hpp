// Elementwise / reduction kernels shared by the NN layers and the FL
// aggregation rules.  Everything operates on spans so the same code serves
// Tensors and flat weight blobs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fedhisyn {

/// dst = src (sizes must match).
void copy(std::span<const float> src, std::span<float> dst);
/// Set all elements to value.
void fill(std::span<float> x, float value);
/// Index of the maximum element (first on ties). Requires non-empty input.
std::int64_t argmax(std::span<const float> x);

/// Mean cross-entropy of row-softmax(logits) against integer labels, and the
/// gradient w.r.t. logits written into grad (same layout), scaled by 1/rows.
/// Returns the mean loss.  grad may alias nothing; pass empty to skip.
float softmax_xent_rows(std::span<const float> logits, std::span<const std::int32_t> labels,
                        std::int64_t rows, std::int64_t cols, std::span<float> grad);

/// Weighted sum: out = sum_i weights[i] * inputs[i]; all spans equal length,
/// deterministic accumulation order (i ascending), each input added through
/// the vector plane's scaled_add (tensor/gemm_kernel.hpp).
void weighted_sum(std::span<const std::span<const float>> inputs,
                  std::span<const double> weights, std::span<float> out);

}  // namespace fedhisyn
