#include "tensor/ops.hpp"

#include "common/check.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn {

void copy(std::span<const float> src, std::span<float> dst) {
  FEDHISYN_CHECK(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
}

void fill(std::span<float> x, float value) {
  for (auto& v : x) v = value;
}

std::int64_t argmax(std::span<const float> x) {
  FEDHISYN_CHECK(!x.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return static_cast<std::int64_t>(best);
}

float softmax_xent_rows(std::span<const float> logits, std::span<const std::int32_t> labels,
                        std::int64_t rows, std::int64_t cols, std::span<float> grad) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(logits.size()) >= rows * cols);
  FEDHISYN_CHECK(static_cast<std::int64_t>(labels.size()) >= rows);
  if (!grad.empty()) FEDHISYN_CHECK(grad.size() >= logits.size());
  // Every label is checked before any output is written.
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t y = labels[static_cast<std::size_t>(r)];
    FEDHISYN_CHECK_MSG(y >= 0 && y < cols, "label " << y << " out of range [0," << cols << ")");
  }
  const double total_loss = gemm_runtime_config().plane.softmax_xent(
      logits.data(), labels.data(), rows, cols, grad.empty() ? nullptr : grad.data());
  return static_cast<float>(total_loss / static_cast<double>(rows));
}

void weighted_sum(std::span<const std::span<const float>> inputs,
                  std::span<const double> weights, std::span<float> out) {
  FEDHISYN_CHECK(inputs.size() == weights.size());
  FEDHISYN_CHECK(!inputs.empty());
  for (const auto& in : inputs) FEDHISYN_CHECK(in.size() == out.size());
  // Accumulate in double for determinism-insensitive precision, fixed order,
  // in this thread's accumulator (reused across calls, so no allocation once
  // it has grown to the model size).
  thread_local std::vector<double> acc;
  acc.assign(out.size(), 0.0);
  const auto scaled_add = gemm_runtime_config().plane.scaled_add;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    scaled_add(acc.data(), inputs[i].data(), weights[i], static_cast<std::int64_t>(out.size()));
  }
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = static_cast<float>(acc[j]);
}

}  // namespace fedhisyn
