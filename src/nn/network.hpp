// Sequential network over a flat weight blob, plus the per-caller Workspace
// holding activation/gradient buffers.  A Network is immutable after
// finalize() and shared read-only across all simulated devices; each device
// owns only its std::vector<float> of weights.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace fedhisyn::nn {

/// Scratch buffers for one forward/backward pass.  Reuse across calls to
/// avoid reallocation; one Workspace per concurrent caller (not thread-safe).
struct Workspace {
  std::vector<Tensor> activations;  // activations[i] = output of layer i
  std::vector<Tensor> gradients;    // gradients[i] = dLoss/d(input of layer i); [0] unused
  Tensor logit_grad;                // dLoss/dLogits
};

/// Immutable sequential model.  Build with add_*(), then finalize().
class Network {
 public:
  Network(Shape3 input_shape, std::int64_t n_classes);
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  Network& add_dense(std::int64_t units);
  /// Folds a ReLU into the layer just added, which must be a dense or conv2d
  /// layer (check-fails otherwise).  Adds no layer of its own.
  Network& add_relu();
  Network& add_conv2d(std::int64_t out_channels, std::int64_t kernel, std::int64_t stride = 1,
                      std::int64_t padding = 0);
  /// A dense layer after it reads the pooled [B, C, H, W] activations as
  /// flat rows, so no flatten layer is needed.
  Network& add_maxpool2();

  /// Validates that the last layer emits exactly n_classes logits and
  /// freezes the architecture.  Must be called before any math.
  void finalize();
  bool finalized() const { return finalized_; }

  std::int64_t param_count() const;
  Shape3 input_shape() const { return input_shape_; }
  std::int64_t n_classes() const { return n_classes_; }
  std::size_t layer_count() const { return layers_.size(); }

  /// Fresh weight blob initialised layer by layer.
  std::vector<float> init_weights(Rng& rng) const;

  /// Forward pass; logits land in ws.activations.back() ([B, n_classes]).
  void forward(std::span<const float> weights, const Tensor& x, Workspace& ws) const;

  /// Mean cross-entropy loss over the batch (forward only).
  float loss(std::span<const float> weights, const Tensor& x,
             std::span<const std::int32_t> labels, Workspace& ws) const;

  /// Mean loss + full gradient w.r.t. weights (grad overwritten, not
  /// accumulated: every layer writes its own slice, so grad needs no
  /// zeroing).  grad.size() must equal param_count().
  float loss_and_grad(std::span<const float> weights, const Tensor& x,
                      std::span<const std::int32_t> labels, std::span<float> grad,
                      Workspace& ws) const;

  /// Fraction of rows of X (shape [N, ...]) whose argmax logit matches labels.
  /// Evaluates in chunks of `batch` over the current pool to bound workspace
  /// size; each thread runs its chunks in its own thread_local workspace.
  float accuracy(std::span<const float> weights, const Tensor& x,
                 std::span<const std::int32_t> labels, std::int64_t batch = 256) const;

 private:
  void check_finalized() const;
  std::span<const float> layer_params(std::span<const float> weights, std::size_t i) const;

  Shape3 input_shape_;
  std::int64_t n_classes_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Shape3> in_shapes_;    // input shape of each layer
  std::vector<std::int64_t> offsets_;  // param offset of each layer
  std::int64_t param_count_ = 0;
  bool finalized_ = false;
};

}  // namespace fedhisyn::nn
