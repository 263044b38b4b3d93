#include "nn/activations.hpp"

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace fedhisyn::nn {

void Relu::forward(const Shape3& in, std::span<const float>, const Tensor& x,
                   Tensor& y) const {
  const std::int64_t batch = x.dim(0);
  FEDHISYN_CHECK(x.numel() == batch * in.numel());
  y.resize(x.shape());
  const float* src = x.data();
  float* dst = y.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void Relu::backward(const Shape3&, std::span<const float>, const Tensor& x,
                    const Tensor& grad_out, Tensor* grad_in, std::span<float>) const {
  FEDHISYN_CHECK(grad_out.numel() == x.numel());
  if (grad_in == nullptr) return;
  grad_in->resize(x.shape());
  const float* xin = x.data();
  const float* go = grad_out.data();
  float* gi = grad_in->data();
  const std::int64_t n = x.numel();
  // go[i] is loaded unconditionally so the select vectorises; the result is
  // the same exact select.
  for (std::int64_t i = 0; i < n; ++i) {
    const float g = go[i];
    gi[i] = xin[i] > 0.0f ? g : 0.0f;
  }
}

void Flatten::forward(const Shape3& in, std::span<const float>, const Tensor& x,
                      Tensor& y) const {
  const std::int64_t batch = x.dim(0);
  FEDHISYN_CHECK(x.numel() == batch * in.numel());
  y.resize({batch, in.numel()});
  copy(x.span(), y.span());
}

void Flatten::backward(const Shape3& in, std::span<const float>, const Tensor& x,
                       const Tensor& grad_out, Tensor* grad_in, std::span<float>) const {
  if (grad_in == nullptr) return;
  grad_in->resize({x.dim(0), in.c, in.h, in.w});
  copy(grad_out.span(), grad_in->span());
}

}  // namespace fedhisyn::nn
