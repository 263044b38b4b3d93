#include "tensor/ops.hpp"

#include <cmath>

#include "common/check.hpp"

namespace fedhisyn {

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  FEDHISYN_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(float alpha, std::span<float> x) {
  for (auto& v : x) v *= alpha;
}

void copy(std::span<const float> src, std::span<float> dst) {
  FEDHISYN_CHECK(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
}

void fill(std::span<float> x, float value) {
  for (auto& v : x) v = value;
}

double dot(std::span<const float> x, std::span<const float> y) {
  FEDHISYN_CHECK(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += static_cast<double>(x[i]) * y[i];
  return acc;
}

double squared_norm(std::span<const float> x) { return dot(x, x); }

double norm(std::span<const float> x) { return std::sqrt(squared_norm(x)); }

std::int64_t argmax(std::span<const float> x) {
  FEDHISYN_CHECK(!x.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return static_cast<std::int64_t>(best);
}

void softmax_rows(std::span<float> logits, std::int64_t rows, std::int64_t cols) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(logits.size()) >= rows * cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = logits.data() + r * cols;
    float max_v = row[0];
    for (std::int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, row[c]);
    double sum = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t c = 0; c < cols; ++c) row[c] *= inv;
  }
}

float softmax_xent_rows(std::span<const float> logits, std::span<const std::int32_t> labels,
                        std::int64_t rows, std::int64_t cols, std::span<float> grad) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(logits.size()) >= rows * cols);
  FEDHISYN_CHECK(static_cast<std::int64_t>(labels.size()) >= rows);
  const bool want_grad = !grad.empty();
  if (want_grad) FEDHISYN_CHECK(grad.size() >= logits.size());
  double total_loss = 0.0;
  const float inv_rows = 1.0f / static_cast<float>(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = logits.data() + r * cols;
    const std::int32_t y = labels[static_cast<std::size_t>(r)];
    FEDHISYN_CHECK_MSG(y >= 0 && y < cols, "label " << y << " out of range [0," << cols << ")");
    float max_v = row[0];
    for (std::int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, row[c]);
    // The gradient path keeps each exp in grad and scales it in place:
    // std::exp(float) is deterministic, so one call gives the bytes two did.
    float* grow = want_grad ? grad.data() + r * cols : nullptr;
    double sum = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float e = std::exp(row[c] - max_v);
      if (want_grad) grow[c] = e;
      sum += e;
    }
    const double log_sum = std::log(sum) + max_v;
    total_loss += log_sum - row[y];
    if (want_grad) {
      const double inv_sum = 1.0 / sum;
      for (std::int64_t c = 0; c < cols; ++c) {
        const double p = grow[c] * inv_sum;
        grow[c] = static_cast<float>(p) * inv_rows;
      }
      grow[y] -= inv_rows;
    }
  }
  return static_cast<float>(total_loss / static_cast<double>(rows));
}

void weighted_sum(std::span<const std::span<const float>> inputs,
                  std::span<const double> weights, std::span<float> out) {
  FEDHISYN_CHECK(inputs.size() == weights.size());
  FEDHISYN_CHECK(!inputs.empty());
  for (const auto& in : inputs) FEDHISYN_CHECK(in.size() == out.size());
  // Accumulate in double for determinism-insensitive precision, fixed order.
  std::vector<double> acc(out.size(), 0.0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double w = weights[i];
    const auto in = inputs[i];
    for (std::size_t j = 0; j < out.size(); ++j) acc[j] += w * in[j];
  }
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = static_cast<float>(acc[j]);
}

}  // namespace fedhisyn
