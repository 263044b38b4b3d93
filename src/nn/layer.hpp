// Layer interface for the flat-parameter network.
//
// Layers are stateless: parameters are passed in as a span slice of the
// network's flat weight blob, and activations are cached by the caller
// (nn::Workspace).  This makes a Network instance shareable across the whole
// simulated device fleet — each device only owns its weight vector — and
// makes FL aggregation a plain weighted sum of blobs.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace fedhisyn::nn {

/// Logical activation shape of one sample: channels x height x width.
/// Vectors use {features, 1, 1}.
struct Shape3 {
  std::int64_t c = 0;
  std::int64_t h = 1;
  std::int64_t w = 1;

  std::int64_t numel() const { return c * h * w; }
  bool operator==(const Shape3&) const = default;
};

/// A stateless differentiable layer.  `x` is the batch input [B, in.numel()],
/// `y` the batch output [B, out.numel()], both row-major with one sample per
/// row.  `backward` receives the same cached input `x` and output `y` that
/// `forward` saw.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;
  virtual Shape3 output_shape(const Shape3& in) const = 0;
  /// Number of trainable parameters given the input shape.
  virtual std::int64_t param_count(const Shape3& in) const = 0;
  /// Initialise this layer's slice of the weight blob.
  virtual void init_params(const Shape3& in, std::span<float> params, Rng& rng) const = 0;

  virtual void forward(const Shape3& in, std::span<const float> params, const Tensor& x,
                       Tensor& y) const = 0;
  /// grad_in and grad_params are overwritten (no caller zeroes either), and
  /// grad_out may be overwritten: a layer with a folded ReLU masks it in
  /// place.  A null grad_in means the caller needs no input gradient (the
  /// network's first layer): the layer then skips that work entirely, and
  /// grad_params must come out bit-identical to a pass that did compute it.
  virtual void backward(const Shape3& in, std::span<const float> params, const Tensor& x,
                        const Tensor& y, Tensor& grad_out, Tensor* grad_in,
                        std::span<float> grad_params) const = 0;

  /// Fold a ReLU into this layer's output: y = max(layer(x), 0).  Returns
  /// false for a layer that cannot take one.
  virtual bool fuse_relu() { return false; }
};

}  // namespace fedhisyn::nn
