// Factories for the two model families the paper evaluates:
//   * MLP with hidden layers 200/100 (MNIST, EMNIST)
//   * CNN: 2 conv layers (5x5 filters) + 2 FC layers (CIFAR10/100)
// scaled to the synthetic input dimensions used in this reproduction.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/network.hpp"

namespace fedhisyn::nn {

/// Paper's MNIST/EMNIST model: input -> 200 -> 100 -> classes, ReLU between.
Network make_mlp(std::int64_t input_dim, std::int64_t n_classes,
                 const std::vector<std::int64_t>& hidden = {200, 100});

/// Paper's CIFAR model shape: conv(5x5, oc1) -> ReLU -> pool -> conv(5x5, oc2)
/// -> ReLU -> pool -> flatten -> dense(fc1) -> ReLU -> dense(fc2) -> ReLU ->
/// dense(classes): 7 layers, each ReLU folded into the layer before it and
/// the flatten implicit in the first dense layer.  Channel/unit counts are
/// parameters so the synthetic 8x8 inputs get a proportionally scaled
/// network.
Network make_cnn(Shape3 input, std::int64_t n_classes, std::int64_t conv1_channels = 16,
                 std::int64_t conv2_channels = 32, std::int64_t fc1_units = 98,
                 std::int64_t fc2_units = 48);

}  // namespace fedhisyn::nn
