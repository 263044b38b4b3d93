#include "nn/models.hpp"

#include "common/check.hpp"

namespace fedhisyn::nn {

Network make_mlp(std::int64_t input_dim, std::int64_t n_classes,
                 const std::vector<std::int64_t>& hidden) {
  FEDHISYN_CHECK(input_dim > 0);
  Network net({input_dim, 1, 1}, n_classes);
  for (const auto units : hidden) {
    net.add_dense(units).add_relu();
  }
  net.add_dense(n_classes);
  net.finalize();
  return net;
}

Network make_cnn(Shape3 input, std::int64_t n_classes, std::int64_t conv1_channels,
                 std::int64_t conv2_channels, std::int64_t fc1_units,
                 std::int64_t fc2_units) {
  FEDHISYN_CHECK_MSG(input.h >= 8 && input.w >= 8,
                     "CNN needs at least 8x8 input (two 2x2 pools)");
  Network net(input, n_classes);
  // 5x5 filters with padding 2 preserve spatial dims, matching the paper's
  // "2 convolutional layers with 5x5 filters".
  net.add_conv2d(conv1_channels, /*kernel=*/5, /*stride=*/1, /*padding=*/2)
      .add_relu()
      .add_maxpool2()
      .add_conv2d(conv2_channels, /*kernel=*/5, /*stride=*/1, /*padding=*/2)
      .add_relu()
      .add_maxpool2()
      .add_dense(fc1_units)
      .add_relu()
      .add_dense(fc2_units)
      .add_relu()
      .add_dense(n_classes);
  net.finalize();
  return net;
}

}  // namespace fedhisyn::nn
