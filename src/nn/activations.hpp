// Parameter-free activation layers.
#pragma once

#include "nn/layer.hpp"

namespace fedhisyn::nn {

/// Rectified linear unit, elementwise.
class Relu final : public Layer {
 public:
  std::string name() const override { return "relu"; }
  Shape3 output_shape(const Shape3& in) const override { return in; }
  std::int64_t param_count(const Shape3&) const override { return 0; }
  void init_params(const Shape3&, std::span<float>, Rng&) const override {}
  void forward(const Shape3& in, std::span<const float> params, const Tensor& x,
               Tensor& y) const override;
  void backward(const Shape3& in, std::span<const float> params, const Tensor& x,
                const Tensor& grad_out, Tensor* grad_in,
                std::span<float> grad_params) const override;
};

/// Identity layer that re-annotates the activation shape as a flat vector.
/// The storage is already row-major contiguous so this is a copy + reshape;
/// kept as an explicit layer so model definitions read like the paper's.
class Flatten final : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  Shape3 output_shape(const Shape3& in) const override { return {in.numel(), 1, 1}; }
  std::int64_t param_count(const Shape3&) const override { return 0; }
  void init_params(const Shape3&, std::span<float>, Rng&) const override {}
  void forward(const Shape3& in, std::span<const float> params, const Tensor& x,
               Tensor& y) const override;
  void backward(const Shape3& in, std::span<const float> params, const Tensor& x,
                const Tensor& grad_out, Tensor* grad_in,
                std::span<float> grad_params) const override;
};

}  // namespace fedhisyn::nn
