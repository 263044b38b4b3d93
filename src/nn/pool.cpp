#include "nn/pool.hpp"

#include "common/check.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn::nn {

Shape3 MaxPool2::output_shape(const Shape3& in) const {
  FEDHISYN_CHECK_MSG(in.h >= 2 && in.w >= 2, "maxpool2 needs at least 2x2 input");
  return {in.c, in.h / 2, in.w / 2};
}

void MaxPool2::forward(const Shape3& in, std::span<const float>, const Tensor& x,
                       Tensor& y) const {
  const std::int64_t batch = x.dim(0);
  const Shape3 out = output_shape(in);
  FEDHISYN_CHECK(x.numel() == batch * in.numel());
  y.resize({batch, out.c, out.h, out.w});
  gemm_runtime_config().plane.maxpool2_forward(x.data(), y.data(), batch * in.c, in.h, in.w);
}

void MaxPool2::backward(const Shape3& in, std::span<const float>, const Tensor& x,
                        const Tensor&, Tensor& grad_out, Tensor* grad_in,
                        std::span<float>) const {
  const std::int64_t batch = x.dim(0);
  const Shape3 out = output_shape(in);
  FEDHISYN_CHECK(x.numel() == batch * in.numel());
  FEDHISYN_CHECK(grad_out.numel() == batch * out.numel());
  if (grad_in == nullptr) return;
  grad_in->resize({batch, in.c, in.h, in.w});
  // Each window's gradient goes to its first argmax, found with comparison
  // masks rather than branches (tools/check_kernel_codegen.py checks it).
  gemm_runtime_config().plane.maxpool2_backward(x.data(), grad_out.data(), grad_in->data(),
                                                batch * in.c, in.h, in.w);
}

}  // namespace fedhisyn::nn
