// Fully-connected layer: y = x * W + b with W stored row-major [in, out]
// followed by the bias [out] in the parameter slice, optionally followed by
// a folded ReLU.
#pragma once

#include "nn/layer.hpp"

namespace fedhisyn::nn {

class Dense final : public Layer {
 public:
  explicit Dense(std::int64_t units);

  std::string name() const override { return "dense"; }
  Shape3 output_shape(const Shape3& in) const override;
  std::int64_t param_count(const Shape3& in) const override;
  void init_params(const Shape3& in, std::span<float> params, Rng& rng) const override;
  void forward(const Shape3& in, std::span<const float> params, const Tensor& x,
               Tensor& y) const override;
  void backward(const Shape3& in, std::span<const float> params, const Tensor& x,
                const Tensor& y, Tensor& grad_out, Tensor* grad_in,
                std::span<float> grad_params) const override;
  bool fuse_relu() override {
    relu_ = true;
    return true;
  }

 private:
  std::int64_t units_;
  bool relu_ = false;
};

}  // namespace fedhisyn::nn
