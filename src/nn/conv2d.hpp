// 2-D convolution via im2col + GEMM.  Parameters: filters stored row-major
// [out_channels, in_channels*kernel*kernel] followed by bias [out_channels].
// The output optionally passes through a folded ReLU.
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace fedhisyn::nn {

class Conv2d final : public Layer {
 public:
  Conv2d(std::int64_t out_channels, std::int64_t kernel, std::int64_t stride = 1,
         std::int64_t padding = 0);

  std::string name() const override { return "conv2d"; }
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
  ConvGeometry geometry(const Shape3& in) const;

  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t padding_;
  bool relu_ = false;
};

}  // namespace fedhisyn::nn
