#include "nn/dense.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn::nn {

Dense::Dense(std::int64_t units) : units_(units) { FEDHISYN_CHECK(units > 0); }

Shape3 Dense::output_shape(const Shape3&) const { return {units_, 1, 1}; }

std::int64_t Dense::param_count(const Shape3& in) const {
  return in.numel() * units_ + units_;
}

void Dense::init_params(const Shape3& in, std::span<float> params, Rng& rng) const {
  const std::int64_t fan_in = in.numel();
  FEDHISYN_CHECK(static_cast<std::int64_t>(params.size()) == param_count(in));
  // Xavier/Glorot uniform.
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + units_));
  for (std::int64_t i = 0; i < fan_in * units_; ++i) {
    params[static_cast<std::size_t>(i)] = static_cast<float>(rng.uniform(-limit, limit));
  }
  for (std::int64_t i = 0; i < units_; ++i) {
    params[static_cast<std::size_t>(fan_in * units_ + i)] = 0.0f;
  }
}

void Dense::forward(const Shape3& in, std::span<const float> params, const Tensor& x,
                    Tensor& y) const {
  const std::int64_t batch = x.dim(0);
  const std::int64_t fan_in = in.numel();
  FEDHISYN_CHECK(x.numel() == batch * fan_in);
  y.resize({batch, units_});
  const auto weights = params.subspan(0, static_cast<std::size_t>(fan_in * units_));
  const auto bias = params.subspan(static_cast<std::size_t>(fan_in * units_),
                                   static_cast<std::size_t>(units_));
  gemm(x.span(), weights, y.span(), batch, fan_in, units_);
  gemm_runtime_config().plane.bias_cols(y.data(), bias.data(), batch, units_, relu_);
}

void Dense::backward(const Shape3& in, std::span<const float> params, const Tensor& x,
                     const Tensor& y, Tensor& grad_out, Tensor* grad_in,
                     std::span<float> grad_params) const {
  const std::int64_t batch = x.dim(0);
  const std::int64_t fan_in = in.numel();
  FEDHISYN_CHECK(grad_out.numel() == batch * units_);
  FEDHISYN_CHECK(!relu_ || y.numel() == batch * units_);
  FEDHISYN_CHECK(static_cast<std::int64_t>(grad_params.size()) == param_count(in));

  const auto weights = params.subspan(0, static_cast<std::size_t>(fan_in * units_));
  auto grad_w = grad_params.subspan(0, static_cast<std::size_t>(fan_in * units_));
  auto grad_b = grad_params.subspan(static_cast<std::size_t>(fan_in * units_),
                                    static_cast<std::size_t>(units_));

  // One sweep masks grad_out by the folded ReLU (y > 0 exactly when the
  // pre-activation is, NaN included) and sums db = column sums of the
  // masked grad_out from +0 in batch order.
  gemm_runtime_config().plane.mask_col_sums(grad_out.data(), relu_ ? y.data() : nullptr,
                                            grad_b.data(), batch, units_);
  // dW[in, out] = x^T(batch, in) * grad_out(batch, out).  m = fan_in here,
  // so the blocked kernel's 2-D tiling (not row-parallelism) is what spreads
  // this tall-skinny shape over the pool.  Beta 0 starts every element from
  // +0, so the slice needs no zeroing.
  gemm_tn(x.span(), grad_out.span(), grad_w, fan_in, batch, units_);
  if (grad_in == nullptr) return;
  // dx(batch, in) = grad_out(batch, out) * W^T(out, in); W stored [in, out].
  grad_in->resize({batch, fan_in});
  gemm_nt(grad_out.span(), weights, grad_in->span(), batch, units_, fan_in);
}

}  // namespace fedhisyn::nn
