// Unit tests for src/nn: finite-difference gradient checks for every layer
// type through full networks, update-rule algebra, model factories, and
// training sanity (loss decreases on a learnable problem).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"
#include "nn/update.hpp"

namespace fedhisyn::nn {
namespace {

/// Build a batch of random inputs + labels for a network.
struct Problem {
  Tensor x;
  std::vector<std::int32_t> y;
};

Problem make_problem(const Network& net, std::int64_t batch, Rng& rng) {
  Problem p;
  const auto in = net.input_shape();
  if (in.h > 1 || in.c > 1) {
    p.x.resize({batch, in.c, in.h, in.w});
  } else {
    p.x.resize({batch, in.numel()});
  }
  for (std::int64_t i = 0; i < p.x.numel(); ++i) {
    p.x.at(i) = static_cast<float>(rng.normal());
  }
  p.y.resize(static_cast<std::size_t>(batch));
  for (auto& label : p.y) {
    label = static_cast<std::int32_t>(rng.uniform_index(
        static_cast<std::uint64_t>(net.n_classes())));
  }
  return p;
}

/// Central-difference check of d(loss)/d(weights) on a random subset of
/// coordinates (full sweeps are too slow for conv nets).
///
/// ReLU and max-pool make the loss piecewise smooth; a coordinate whose
/// +/-eps probes straddle a kink gives a meaningless finite difference.  We
/// detect those points by comparing two step sizes (eps and eps/2): where
/// the two estimates disagree, the point is nonsmooth and skipped.  A
/// genuinely wrong backward pass fails consistently at smooth points, so the
/// test retains full bug-catching power.
void gradient_check(const Network& net, std::int64_t batch, std::uint64_t seed,
                    int n_coords = 60, float tol = 2e-2f) {
  Rng rng(seed);
  auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, batch, rng);
  Workspace ws;
  std::vector<float> grad(weights.size());
  net.loss_and_grad(weights, p.x, p.y, grad, ws);

  auto fd_at = [&](std::size_t i, float eps) {
    const float saved = weights[i];
    weights[i] = saved + eps;
    const float lp = net.loss(weights, p.x, p.y, ws);
    weights[i] = saved - eps;
    const float lm = net.loss(weights, p.x, p.y, ws);
    weights[i] = saved;
    return (lp - lm) / (2.0f * eps);
  };

  int checked = 0;
  for (int t = 0; t < n_coords; ++t) {
    const auto i = static_cast<std::size_t>(rng.uniform_index(weights.size()));
    const float fd1 = fd_at(i, 4e-3f);
    const float fd2 = fd_at(i, 1e-3f);
    if (std::abs(fd1 - fd2) > 0.015f * (std::abs(fd1) + std::abs(fd2)) + 5e-4f) {
      continue;  // nonsmooth point (activation kink under the probe)
    }
    ++checked;
    EXPECT_NEAR(grad[i], fd2, tol * (std::abs(fd2) + 1.0f))
        << "coordinate " << i << " of " << weights.size();
  }
  // The filter must not silently skip everything.
  EXPECT_GE(checked, n_coords / 2);
}

TEST(Network, FinalizeValidatesHead) {
  Network net({8, 1, 1}, 4);
  net.add_dense(16).add_relu().add_dense(5);  // wrong head size
  EXPECT_THROW(net.finalize(), CheckError);
}

TEST(Network, AddReluFoldsOnlyIntoDenseOrConv) {
  Network empty({8, 1, 1}, 4);
  EXPECT_THROW(empty.add_relu(), CheckError);
  Network pooled({2, 4, 4}, 4);
  pooled.add_conv2d(2, 3, 1, 1).add_relu().add_maxpool2();
  EXPECT_THROW(pooled.add_relu(), CheckError);
  // The ReLU adds no layer of its own.
  Network mlp({8, 1, 1}, 4);
  mlp.add_dense(6).add_relu().add_dense(4);
  mlp.finalize();
  EXPECT_EQ(mlp.layer_count(), 2u);
}

TEST(Network, RequiresFinalizeBeforeUse) {
  Network net({8, 1, 1}, 4);
  net.add_dense(4);
  EXPECT_THROW(net.param_count(), CheckError);
}

TEST(Network, ParamCountMatchesArchitecture) {
  Network net({10, 1, 1}, 3);
  net.add_dense(7).add_relu().add_dense(3);
  net.finalize();
  EXPECT_EQ(net.param_count(), 10 * 7 + 7 + 7 * 3 + 3);
}

TEST(Network, InitWeightsDeterministic) {
  const auto net = make_mlp(12, 4, {8});
  Rng a(5);
  Rng b(5);
  const auto w1 = net.init_weights(a);
  const auto w2 = net.init_weights(b);
  EXPECT_EQ(w1, w2);
}

TEST(Network, DenseGradientMatchesFiniteDifference) {
  const auto net = make_mlp(6, 3, {10});
  gradient_check(net, /*batch=*/5, /*seed=*/71);
}

TEST(Network, DeepMlpGradientMatchesFiniteDifference) {
  const auto net = make_mlp(8, 4, {16, 12, 8});
  gradient_check(net, /*batch=*/7, /*seed=*/73);
}

TEST(Network, SmoothConvGradientIsExact) {
  // conv -> dense -> softmax has no kinks: the loss is smooth in
  // the weights, so central differences must match tightly everywhere.
  Network net({2, 6, 6}, 3);
  net.add_conv2d(3, 3, 1, 1).add_dense(3);
  net.finalize();
  Rng rng(101);
  auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, 4, rng);
  Workspace ws;
  std::vector<float> grad(weights.size());
  net.loss_and_grad(weights, p.x, p.y, grad, ws);
  const float eps = 1e-2f;
  for (int t = 0; t < 80; ++t) {
    const auto i = static_cast<std::size_t>(rng.uniform_index(weights.size()));
    const float saved = weights[i];
    weights[i] = saved + eps;
    const float lp = net.loss(weights, p.x, p.y, ws);
    weights[i] = saved - eps;
    const float lm = net.loss(weights, p.x, p.y, ws);
    weights[i] = saved;
    const float fd = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(grad[i], fd, 5e-3f * (std::abs(fd) + 1.0f)) << "coordinate " << i;
  }
}

TEST(Network, MaxPoolForwardBackwardHandComputed) {
  // Single 4x4 plane with known maxima; verify forward values and that the
  // backward routes each gradient to the argmax cell.
  MaxPool2 pool;
  const Shape3 in{1, 4, 4};
  Tensor x({1, 1, 4, 4});
  const float values[16] = {1, 2, 0, 0,   //
                            3, 4, 0, 5,   //
                            0, 0, 9, 8,   //
                            0, 7, 6, 0};
  for (int i = 0; i < 16; ++i) x.at(i) = values[i];
  Tensor y;
  pool.forward(in, {}, x, y);
  EXPECT_FLOAT_EQ(y.at(0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(1), 5.0f);
  EXPECT_FLOAT_EQ(y.at(2), 7.0f);
  EXPECT_FLOAT_EQ(y.at(3), 9.0f);

  Tensor grad_out({1, 1, 2, 2});
  for (int i = 0; i < 4; ++i) grad_out.at(i) = static_cast<float>(i + 1);
  Tensor grad_in;
  pool.backward(in, {}, x, y, grad_out, &grad_in, {});
  EXPECT_FLOAT_EQ(grad_in.at(5), 1.0f);   // 4 at (1,1)
  EXPECT_FLOAT_EQ(grad_in.at(7), 2.0f);   // 5 at (1,3)
  EXPECT_FLOAT_EQ(grad_in.at(13), 3.0f);  // 7 at (3,1)
  EXPECT_FLOAT_EQ(grad_in.at(10), 4.0f);  // 9 at (2,2)
  // Everything else zero.
  double total = 0.0;
  for (int i = 0; i < 16; ++i) total += grad_in.at(i);
  EXPECT_DOUBLE_EQ(total, 10.0);
}

TEST(Network, MaxPoolBackwardTiesNegativeZeroAndOddEdges) {
  // A 3x5 plane: two windows, plus a last row and column that lie in none.
  // The first window ties three ways and routes to its first max; the second
  // gets a -0 upstream gradient, which must land as +0.  grad_in starts
  // full of junk, so every cell backward leaves untouched would show.
  MaxPool2 pool;
  const Shape3 in{1, 3, 5};
  Tensor x({1, 1, 3, 5});
  const float values[15] = {5, 1, 0, 3, 9,  //
                            5, 5, 1, 2, 9,  //
                            9, 9, 9, 9, 9};
  for (int i = 0; i < 15; ++i) x.at(i) = values[i];
  Tensor y;
  pool.forward(in, {}, x, y);
  ASSERT_EQ(y.numel(), 2);
  EXPECT_EQ(y.at(0), 5.0f);
  EXPECT_EQ(y.at(1), 3.0f);

  Tensor grad_out({1, 1, 1, 2});
  grad_out.at(0) = 1.5f;
  grad_out.at(1) = -0.0f;
  Tensor grad_in({1, 1, 3, 5});
  grad_in.fill(7.0f);
  pool.backward(in, {}, x, y, grad_out, &grad_in, {});
  ASSERT_EQ(grad_in.numel(), 15);
  for (int i = 0; i < 15; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(grad_in.at(i), i == 0 ? 1.5f : 0.0f);
    EXPECT_FALSE(std::signbit(grad_in.at(i)));
  }
}

TEST(Network, MaxPoolBackwardRoutesNaNAndSignedZeroTiesLikeForward) {
  // One 2x12 plane, six windows: the first four take the vectorised body
  // of the window loop, the last two its scalar tail.  Each window's
  // expected argmax is the forward's scan (`v > best`, first wins): a NaN
  // first wins every comparison-free window, a NaN later never wins, and
  // +0 / -0 ties go to the first of them.
  MaxPool2 pool;
  const Shape3 in{1, 2, 12};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Window w reads top[2w], top[2w+1], bottom[2w], bottom[2w+1].
  const float top[12] = {nan, 1, 1, nan, -0.0f, 0.0f, -1, 0.0f, nan, 5, 3, 2};
  const float bottom[12] = {2, 3, 2, 0, -0.0f, 0.0f, -0.0f, 0.0f, 6, 7, nan, 4};
  const int argmax[6] = {0, 2, 0, 1, 0, 3};
  Tensor x({1, 1, 2, 12});
  for (int i = 0; i < 12; ++i) {
    x.at(i) = top[i];
    x.at(12 + i) = bottom[i];
  }
  Tensor y;
  pool.forward(in, {}, x, y);
  ASSERT_EQ(y.numel(), 6);

  Tensor grad_out({1, 1, 1, 6});
  for (int w = 0; w < 6; ++w) grad_out.at(w) = 1.5f + static_cast<float>(w);
  Tensor grad_in({1, 1, 2, 12});
  grad_in.fill(7.0f);
  pool.backward(in, {}, x, y, grad_out, &grad_in, {});
  for (int w = 0; w < 6; ++w) {
    SCOPED_TRACE(w);
    const int cells[4] = {2 * w, 2 * w + 1, 12 + 2 * w, 12 + 2 * w + 1};
    // The forward picked the same cell: its output has that cell's bits.
    const float picked = x.at(cells[argmax[w]]);
    EXPECT_EQ(0, std::memcmp(&picked, &y.at(w), sizeof(float)));
    for (int i = 0; i < 4; ++i) {
      const float got = grad_in.at(cells[i]);
      EXPECT_EQ(got, i == argmax[w] ? grad_out.at(w) : 0.0f) << "cell " << i;
      EXPECT_FALSE(std::signbit(got)) << "cell " << i;
    }
  }
}

/// Backward through one layer with and without the input gradient: the
/// parameter gradient must come out bit-identical either way.
void expect_grad_params_independent_of_grad_in(const Layer& layer, const Shape3& in,
                                               std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> params(static_cast<std::size_t>(layer.param_count(in)));
  layer.init_params(in, params, rng);
  Tensor x({batch, in.c, in.h, in.w});
  for (std::int64_t i = 0; i < x.numel(); ++i) x.at(i) = static_cast<float>(rng.normal());
  Tensor y;
  layer.forward(in, params, x, y);
  Tensor grad_out(y.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_out.at(i) = static_cast<float>(rng.normal());
  }

  std::vector<float> full(params.size(), 0.0f);
  std::vector<float> skipped(params.size(), 0.0f);
  Tensor grad_in;
  Tensor grad_out_copy = grad_out;
  layer.backward(in, params, x, y, grad_out, &grad_in, full);
  layer.backward(in, params, x, y, grad_out_copy, nullptr, skipped);
  EXPECT_EQ(grad_in.numel(), batch * in.numel());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_EQ(full[i], skipped[i]) << layer.name() << " grad_params at " << i;
  }
}

TEST(Network, DenseBackwardWithoutGradInKeepsParamGradient) {
  expect_grad_params_independent_of_grad_in(Dense(16), {32, 1, 1}, /*batch=*/50, 101);
}

TEST(Network, ConvBackwardWithoutGradInKeepsParamGradient) {
  expect_grad_params_independent_of_grad_in(Conv2d(4, 3, 1, 1), {3, 8, 8}, /*batch=*/3,
                                            103);
}

TEST(Network, ConvFilterGradientOfNegativeZeroDotsIsPositiveZero) {
  // A zero input makes every column +0, so with grad_out all -1 each
  // per-sample dot sums only -0 products.  The sum starts from +0 and each
  // sample adds 1*C + dot, so every filter gradient is +0, never -0.
  const Conv2d conv(4, 3, 1, 1);
  const Shape3 in{2, 5, 4};
  const std::int64_t batch = 3;
  Rng rng(109);
  std::vector<float> params(static_cast<std::size_t>(conv.param_count(in)));
  conv.init_params(in, params, rng);
  Tensor x({batch, in.c, in.h, in.w});
  Tensor y;
  conv.forward(in, params, x, y);
  Tensor grad_out(y.shape());
  grad_out.fill(-1.0f);
  std::vector<float> grad(params.size(), -0.0f);
  conv.backward(in, params, x, y, grad_out, nullptr, grad);
  const std::int64_t n_filters = 4 * in.c * 3 * 3;
  for (std::int64_t i = 0; i < n_filters; ++i) {
    const float g = grad[static_cast<std::size_t>(i)];
    ASSERT_TRUE(g == 0.0f && !std::signbit(g)) << "filter gradient " << i << " is " << g;
  }
  // Bias: batch * 20 pixels of -1 per channel.
  for (std::int64_t i = n_filters; i < conv.param_count(in); ++i) {
    EXPECT_EQ(grad[static_cast<std::size_t>(i)], -60.0f);
  }
}

/// Characterisation: Conv2d::backward writes every element of grad_in, so a
/// grad_in full of NaN and one full of zeros come out with the same bytes
/// (and the same parameter gradient).
void expect_grad_in_overwritten(Conv2d conv, bool relu, const Shape3& in,
                                std::int64_t batch, std::uint64_t seed, Tensor* out) {
  if (relu) conv.fuse_relu();
  Rng rng(seed);
  std::vector<float> params(static_cast<std::size_t>(conv.param_count(in)));
  conv.init_params(in, params, rng);
  Tensor x({batch, in.c, in.h, in.w});
  for (std::int64_t i = 0; i < x.numel(); ++i) x.at(i) = static_cast<float>(rng.normal());
  Tensor y;
  conv.forward(in, params, x, y);
  Tensor grad_out(y.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_out.at(i) = static_cast<float>(rng.normal());
  }
  Tensor grad_out_copy = grad_out;  // the folded ReLU masks grad_out in place
  Tensor from_nan({batch, in.c, in.h, in.w});
  from_nan.fill(std::numeric_limits<float>::quiet_NaN());
  Tensor from_zero({batch, in.c, in.h, in.w});
  from_zero.fill(0.0f);
  std::vector<float> params_nan(params.size(), 0.0f);
  std::vector<float> params_zero(params.size(), 0.0f);
  conv.backward(in, params, x, y, grad_out, &from_nan, params_nan);
  conv.backward(in, params, x, y, grad_out_copy, &from_zero, params_zero);
  ASSERT_EQ(from_nan.numel(), from_zero.numel());
  ASSERT_EQ(0, std::memcmp(from_nan.data(), from_zero.data(),
                           static_cast<std::size_t>(from_zero.numel()) * sizeof(float)));
  ASSERT_EQ(0, std::memcmp(params_nan.data(), params_zero.data(),
                           params_zero.size() * sizeof(float)));
  *out = from_zero;
}

TEST(Characterization, ConvBackwardOverwritesGradIn) {
  // A 1x1 stride-2 conv on 5x5 inputs: cells on an odd row or column get
  // no term and must read +0.
  Tensor grad_in;
  expect_grad_in_overwritten(Conv2d(4, 1, 2, 0), /*relu=*/false, {3, 5, 5}, /*batch=*/2,
                             301, &grad_in);
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) {
    const std::int64_t row = (i / 5) % 5;
    const std::int64_t col = i % 5;
    if (row % 2 == 0 && col % 2 == 0) continue;
    const float g = grad_in.at(i);
    ASSERT_TRUE(g == 0.0f && !std::signbit(g)) << "uncovered cell " << i << " is " << g;
  }
  // The paper CNN's conv2 at laptop scale: 16x4x4 in, 32 5x5 filters,
  // padding 2, folded ReLU.
  expect_grad_in_overwritten(Conv2d(32, 5, 1, 2), /*relu=*/true, {16, 4, 4}, /*batch=*/3,
                             302, &grad_in);
}

TEST(Network, LossAndGradSkipsFirstLayerInputGradient) {
  // The laptop MLP: three forward GEMMs, three dW GEMMs, and a dx GEMM for
  // every Dense layer but the first, whose input gradient nobody reads.
  const auto net = make_mlp(64, 10, {32, 16});
  Rng rng(107);
  const auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, 50, rng);
  Workspace ws;
  std::vector<float> grad(weights.size());
  const auto gemm_calls = [](const std::map<std::string, std::uint64_t>& snap) {
    const auto it = snap.find("gemm.calls");
    return it == snap.end() ? std::uint64_t{0} : it->second;
  };
  const auto before = counters::snapshot();
  net.loss_and_grad(weights, p.x, p.y, grad, ws);
  EXPECT_EQ(gemm_calls(counters::snapshot()) - gemm_calls(before), 8u);
}

TEST(Network, ConvPoolGradientMatchesFiniteDifference) {
  Network net({2, 8, 8}, 3);
  net.add_conv2d(4, 3, 1, 1).add_relu().add_maxpool2().add_dense(3);
  net.finalize();
  gradient_check(net, /*batch=*/3, /*seed=*/79, /*n_coords=*/40);
}

TEST(Network, PaperCnnGradientMatchesFiniteDifference) {
  const auto net = make_cnn({3, 8, 8}, 5, /*conv1=*/4, /*conv2=*/6, /*fc1=*/20,
                            /*fc2=*/12);
  gradient_check(net, /*batch=*/2, /*seed=*/83, /*n_coords=*/30);
}

TEST(Network, LossDecreasesUnderSgd) {
  // Tiny separable problem: the loss should drop substantially in 50 steps.
  const auto net = make_mlp(4, 2, {16});
  Rng rng(91);
  auto weights = net.init_weights(rng);
  Tensor x({20, 4});
  std::vector<std::int32_t> y(20);
  for (int i = 0; i < 20; ++i) {
    const int label = i % 2;
    y[static_cast<std::size_t>(i)] = label;
    for (int d = 0; d < 4; ++d) {
      x.at(i * 4 + d) = static_cast<float>(rng.normal()) +
                        (label == 0 ? 2.0f : -2.0f);
    }
  }
  Workspace ws;
  std::vector<float> grad(weights.size());
  const float initial = net.loss_and_grad(weights, x, y, grad, ws);
  for (int step = 0; step < 50; ++step) {
    net.loss_and_grad(weights, x, y, grad, ws);
    sgd_step(weights, grad, 0.1f);
  }
  const float final_loss = net.loss(weights, x, y, ws);
  EXPECT_LT(final_loss, 0.5f * initial);
}

TEST(Network, AccuracyPerfectOnMemorisedData) {
  const auto net = make_mlp(4, 2, {16});
  Rng rng(93);
  auto weights = net.init_weights(rng);
  Tensor x({16, 4});
  std::vector<std::int32_t> y(16);
  for (int i = 0; i < 16; ++i) {
    const int label = i % 2;
    y[static_cast<std::size_t>(i)] = label;
    for (int d = 0; d < 4; ++d) {
      x.at(i * 4 + d) = (label == 0 ? 3.0f : -3.0f) + 0.1f * static_cast<float>(rng.normal());
    }
  }
  Workspace ws;
  std::vector<float> grad(weights.size());
  for (int step = 0; step < 100; ++step) {
    net.loss_and_grad(weights, x, y, grad, ws);
    sgd_step(weights, grad, 0.2f);
  }
  EXPECT_GT(net.accuracy(weights, x, y, /*batch=*/5), 0.95f);
}

TEST(Network, LossMatchesLossAndGradValue) {
  // The forward-only loss and the loss returned alongside the gradient must
  // be identical (they share one code path through softmax_xent_rows).
  const auto net = make_mlp(10, 4, {12});
  Rng rng(95);
  const auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, 9, rng);
  Workspace ws;
  std::vector<float> grad(weights.size());
  const float with_grad = net.loss_and_grad(weights, p.x, p.y, grad, ws);
  const float without = net.loss(weights, p.x, p.y, ws);
  EXPECT_FLOAT_EQ(with_grad, without);
}

TEST(Network, AccuracyChunkingInvariant) {
  // Accuracy must not depend on the evaluation batch size.
  const auto net = make_mlp(6, 3, {8});
  Rng rng(97);
  const auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, 23, rng);
  const float a1 = net.accuracy(weights, p.x, p.y, 1);
  const float a7 = net.accuracy(weights, p.x, p.y, 7);
  const float a23 = net.accuracy(weights, p.x, p.y, 23);
  const float a100 = net.accuracy(weights, p.x, p.y, 100);
  EXPECT_FLOAT_EQ(a1, a7);
  EXPECT_FLOAT_EQ(a7, a23);
  EXPECT_FLOAT_EQ(a23, a100);
}

/// FNV-1a over the bytes of the loss and the gradient: any bit that moves
/// changes the digest.
std::uint64_t loss_grad_digest(float loss, std::span<const float> grad) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  mix(&loss, sizeof(loss));
  mix(grad.data(), grad.size_bytes());
  return h;
}

/// Characterisation: one loss_and_grad of a fixed problem, pinned to exact
/// bytes.  The gradient buffer starts out full of junk and the pass runs
/// twice on one workspace, so a layer that leaves part of its gradient slice
/// unwritten, or a reused activation buffer that leaks stale values, moves
/// the digest.
std::uint64_t step_digest(const Network& net, std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  const auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, batch, rng);
  Workspace ws;
  std::vector<float> grad(weights.size(), 1234.5f);
  const float first = net.loss_and_grad(weights, p.x, p.y, grad, ws);
  const std::uint64_t digest = loss_grad_digest(first, grad);
  std::fill(grad.begin(), grad.end(), -0.0f);
  const float second = net.loss_and_grad(weights, p.x, p.y, grad, ws);
  EXPECT_EQ(loss_grad_digest(second, grad), digest) << "second pass differs";
  return digest;
}

TEST(Characterization, MlpLossAndGradBytes) {
  EXPECT_EQ(step_digest(make_mlp(64, 10, {32, 16}), 40, 201), 2520364446938128171ull);
  EXPECT_EQ(step_digest(make_mlp(64, 10, {32, 16}), 50, 202), 2146854456150948362ull);
  EXPECT_EQ(step_digest(make_mlp(192, 10, {32, 16}), 40, 203), 5280350945492408845ull);
  EXPECT_EQ(step_digest(make_mlp(192, 10, {32, 16}), 50, 204), 16173625023887624840ull);
}

TEST(Characterization, CnnLossAndGradBytes) {
  // The paper CNN on a cifar10-shaped batch (3x8x8 inputs, 10 classes).
  EXPECT_EQ(step_digest(make_cnn({3, 8, 8}, 10), 8, 205), 12928038091054846580ull);
}

/// Characterisation: two epochs of core::train_local on the paper CNN, pinned
/// to the exact bytes of the final weights.  27 samples at batch 8 end every
/// epoch on a ragged batch of 3, so the batch, activation and gradient
/// tensors change shape between steps; the run repeats on pools of 1 and 2
/// threads, which must agree.
std::uint64_t cnn_train_digest(std::size_t threads) {
  const Network net = make_cnn({3, 8, 8}, 10);
  Rng rng(206);
  auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, 27, rng);
  data::Dataset set;
  set.x = p.x;
  set.y = p.y;
  set.n_classes = net.n_classes();
  std::vector<std::int64_t> indices(27);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<std::int64_t>((i * 10) % indices.size());
  }
  const data::Shard shard(&set, indices);
  ParallelExecutor pool(threads);
  ParallelExecutor::Bind bind(pool);
  const auto outcome = core::train_local(net, weights, shard, /*epochs=*/2,
                                         /*batch_size=*/8, /*lr=*/0.05f,
                                         core::UpdateKind::kSgd, {}, rng);
  EXPECT_EQ(outcome.steps, 8);
  return loss_grad_digest(outcome.mean_loss, weights);
}

TEST(Characterization, CnnTrainLocalBytes) {
  EXPECT_EQ(cnn_train_digest(1), 14441510550098328019ull);
  EXPECT_EQ(cnn_train_digest(2), 14441510550098328019ull);
}

/// A labelled set of `rows` random samples shaped for `net`.
data::Dataset random_set(const Network& net, std::int64_t rows, Rng& rng) {
  const Problem p = make_problem(net, rows, rng);
  data::Dataset set;
  set.x = p.x;
  set.y = p.y;
  set.n_classes = net.n_classes();
  return set;
}

/// Shard over all of `set`, visited in a scrambled (non-identity) order.
data::Shard scrambled_shard(const data::Dataset& set) {
  std::vector<std::int64_t> indices(set.y.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<std::int64_t>((i * 7) % indices.size());
  }
  return data::Shard(&set, indices);
}

struct MlpJobResult {
  std::vector<float> weights;
  float mean_loss = 0.0f;
  float accuracy = 0.0f;
};

/// One laptop-MLP train_local job and its Network::accuracy, both on a
/// 3-thread pool bound on a new std::thread.  With `cnn_first`, that thread
/// and pool first train the paper CNN for an epoch and evaluate it, so every
/// thread_local buffer (step scratch, evaluation workspace, GEMM and conv
/// arena) holds CNN-shaped state when the MLP job starts.
MlpJobResult mlp_job_on_new_thread(bool cnn_first) {
  MlpJobResult result;
  std::exception_ptr error;
  std::thread([&] {
    try {
      ParallelExecutor pool(3);
      ParallelExecutor::Bind bind(pool);
      core::UpdateExtras extras;
      extras.momentum = 0.9f;
      if (cnn_first) {
        const Network cnn = make_cnn({3, 8, 8}, 10);
        Rng rng(301);
        auto weights = cnn.init_weights(rng);
        // As many samples as the MLP shard, so a stale permutation of the
        // right length would be trained as-is if train_local stopped
        // resetting it.
        const data::Dataset train = random_set(cnn, 30, rng);
        const data::Dataset test = random_set(cnn, 50, rng);
        core::train_local(cnn, weights, scrambled_shard(train), /*epochs=*/1,
                          /*batch_size=*/16, /*lr=*/0.05f, core::UpdateKind::kSgd,
                          extras, rng);
        cnn.accuracy(weights, test.x, test.y, /*batch=*/8);
      }
      const Network mlp = make_mlp(64, 10, {32, 16});
      Rng rng(302);
      result.weights = mlp.init_weights(rng);
      const data::Dataset train = random_set(mlp, 30, rng);
      const data::Dataset test = random_set(mlp, 90, rng);
      result.mean_loss =
          core::train_local(mlp, result.weights, scrambled_shard(train), /*epochs=*/2,
                            /*batch_size=*/8, /*lr=*/0.1f, core::UpdateKind::kSgd, extras,
                            rng)
              .mean_loss;
      result.accuracy = mlp.accuracy(result.weights, test.x, test.y, /*batch=*/16);
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
  return result;
}

TEST(ThreadScratch, CarriesNothingFromOneNetworkToTheNext) {
  // Per-thread scratch outlives a job, a cell and a network: a thread that
  // trained and evaluated the CNN must produce the same MLP bytes as fresh
  // threads.
  const MlpJobResult fresh = mlp_job_on_new_thread(false);
  const MlpJobResult reused = mlp_job_on_new_thread(true);
  EXPECT_EQ(reused.weights, fresh.weights);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(reused.mean_loss),
            std::bit_cast<std::uint32_t>(fresh.mean_loss));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(reused.accuracy),
            std::bit_cast<std::uint32_t>(fresh.accuracy));
  // Pinned, so a fault that shifts fresh and reused threads alike shows too.
  EXPECT_EQ(loss_grad_digest(fresh.mean_loss, fresh.weights), 2350153639023298750ull);
}

TEST(Update, SgdStepAlgebra) {
  std::vector<float> w = {1.0f, 2.0f};
  std::vector<float> g = {0.5f, -1.0f};
  sgd_step(w, g, 0.1f);
  EXPECT_FLOAT_EQ(w[0], 0.95f);
  EXPECT_FLOAT_EQ(w[1], 2.1f);
}

TEST(Update, ProxStepPullsTowardAnchor) {
  std::vector<float> w = {2.0f};
  const std::vector<float> g = {0.0f};
  const std::vector<float> anchor = {0.0f};
  prox_sgd_step(w, g, anchor, /*lr=*/0.5f, /*mu=*/1.0f);
  // w -= 0.5 * (0 + 1*(2-0)) = 1.0
  EXPECT_FLOAT_EQ(w[0], 1.0f);
}

TEST(Update, ScaffoldCorrectionApplied) {
  std::vector<float> w = {0.0f};
  const std::vector<float> g = {1.0f};
  const std::vector<float> ci = {0.4f};
  const std::vector<float> c = {0.1f};
  scaffold_step(w, g, ci, c, /*lr=*/1.0f);
  // w -= 1 * (1 - 0.4 + 0.1) = -0.7
  EXPECT_FLOAT_EQ(w[0], -0.7f);
}

TEST(Update, SizeMismatchRejected) {
  std::vector<float> w = {0.0f, 1.0f};
  const std::vector<float> g = {1.0f};
  EXPECT_THROW(sgd_step(w, g, 0.1f), fedhisyn::CheckError);
}

TEST(Models, ConvGeometryPropagation) {
  // 5x5 kernel with padding 2 preserves spatial dims; each maxpool halves.
  Conv2d conv(8, 5, 1, 2);
  const Shape3 in{3, 8, 8};
  const auto after_conv = conv.output_shape(in);
  EXPECT_EQ(after_conv.c, 8);
  EXPECT_EQ(after_conv.h, 8);
  EXPECT_EQ(after_conv.w, 8);
  MaxPool2 pool;
  const auto after_pool = pool.output_shape(after_conv);
  EXPECT_EQ(after_pool.h, 4);
  EXPECT_EQ(after_pool.w, 4);

  // Strided conv without padding shrinks: (8 - 3)/2 + 1 = 3.
  Conv2d strided(4, 3, 2, 0);
  const auto shrunk = strided.output_shape(in);
  EXPECT_EQ(shrunk.h, 3);
  EXPECT_EQ(shrunk.w, 3);
}

TEST(Models, ConvParamCountMatchesFormula) {
  Conv2d conv(16, 5, 1, 2);
  const Shape3 in{3, 8, 8};
  EXPECT_EQ(conv.param_count(in), 16 * 3 * 5 * 5 + 16);
}

TEST(Models, MlpShapesMatchPaper) {
  const auto net = make_mlp(64, 10);
  // 64->200->100->10 with biases.
  EXPECT_EQ(net.param_count(), 64 * 200 + 200 + 200 * 100 + 100 + 100 * 10 + 10);
  EXPECT_EQ(net.n_classes(), 10);
}

TEST(Models, CnnBuildsAndEmitsClassLogits) {
  const auto net = make_cnn({3, 8, 8}, 10);
  Rng rng(99);
  const auto weights = net.init_weights(rng);
  Tensor x({2, 3, 8, 8});
  Workspace ws;
  net.forward(weights, x, ws);
  EXPECT_EQ(ws.activations.back().dim(0), 2);
  EXPECT_EQ(ws.activations.back().dim(1), 10);
}

TEST(Models, CnnRejectsTinyInput) {
  EXPECT_THROW(make_cnn({3, 4, 4}, 10), fedhisyn::CheckError);
}

}  // namespace
}  // namespace fedhisyn::nn
