// 2x2 stride-2 max pooling (the only pooling the paper's CNN needs).
#pragma once

#include "nn/layer.hpp"

namespace fedhisyn::nn {

class MaxPool2 final : public Layer {
 public:
  std::string name() const override { return "maxpool2"; }
  Shape3 output_shape(const Shape3& in) const override;
  std::int64_t param_count(const Shape3&) const override { return 0; }
  void init_params(const Shape3&, std::span<float>, Rng&) const override {}
  void forward(const Shape3& in, std::span<const float> params, const Tensor& x,
               Tensor& y) const override;
  void backward(const Shape3& in, std::span<const float> params, const Tensor& x,
                const Tensor& y, Tensor& grad_out, Tensor* grad_in,
                std::span<float> grad_params) const override;
};

}  // namespace fedhisyn::nn
