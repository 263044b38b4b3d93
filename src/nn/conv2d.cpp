#include "nn/conv2d.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_tune.hpp"
#include "tensor/ops.hpp"

namespace fedhisyn::nn {

Conv2d::Conv2d(std::int64_t out_channels, std::int64_t kernel, std::int64_t stride,
               std::int64_t padding)
    : out_channels_(out_channels), kernel_(kernel), stride_(stride), padding_(padding) {
  FEDHISYN_CHECK(out_channels > 0 && kernel > 0 && stride > 0 && padding >= 0);
}

ConvGeometry Conv2d::geometry(const Shape3& in) const {
  ConvGeometry g;
  g.channels = in.c;
  g.height = in.h;
  g.width = in.w;
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  FEDHISYN_CHECK_MSG(g.out_height() > 0 && g.out_width() > 0,
                     "conv output collapsed for input " << in.c << "x" << in.h << "x" << in.w);
  return g;
}

Shape3 Conv2d::output_shape(const Shape3& in) const {
  const ConvGeometry g = geometry(in);
  return {out_channels_, g.out_height(), g.out_width()};
}

std::int64_t Conv2d::param_count(const Shape3& in) const {
  return out_channels_ * in.c * kernel_ * kernel_ + out_channels_;
}

void Conv2d::init_params(const Shape3& in, std::span<float> params, Rng& rng) const {
  FEDHISYN_CHECK(static_cast<std::int64_t>(params.size()) == param_count(in));
  const std::int64_t fan_in = in.c * kernel_ * kernel_;
  const std::int64_t fan_out = out_channels_ * kernel_ * kernel_;
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  const std::int64_t n_weights = out_channels_ * fan_in;
  for (std::int64_t i = 0; i < n_weights; ++i) {
    params[static_cast<std::size_t>(i)] = static_cast<float>(rng.uniform(-limit, limit));
  }
  for (std::int64_t i = 0; i < out_channels_; ++i) {
    params[static_cast<std::size_t>(n_weights + i)] = 0.0f;
  }
}

void Conv2d::forward(const Shape3& in, std::span<const float> params, const Tensor& x,
                     Tensor& y) const {
  const ConvGeometry g = geometry(in);
  const std::int64_t batch = x.dim(0);
  FEDHISYN_CHECK(x.numel() == batch * in.numel());
  const std::int64_t col_rows = g.col_rows();
  const std::int64_t col_cols = g.col_cols();
  y.resize({batch, out_channels_, g.out_height(), g.out_width()});

  const auto filters = params.subspan(0, static_cast<std::size_t>(out_channels_ * col_rows));
  const auto bias = params.subspan(static_cast<std::size_t>(out_channels_ * col_rows),
                                   static_cast<std::size_t>(out_channels_));

  const gemmk::VecPlane& vec = gemm_runtime_config().plane;
  // Serial over the batch, like the backward: the caller's loop over
  // training jobs is what runs in parallel.  Thread-local arena scratch is
  // reused across samples, layers and calls (the GEMM's B-panel pack
  // buffer is a separate arena slot).
  auto columns = ScratchArena::buffer(
      ScratchArena::kConvColumns, static_cast<std::size_t>(col_rows * col_cols));
  for (std::int64_t b = 0; b < batch; ++b) {
    im2col(x.row(b), g, columns);
    auto out_row = y.row(b);
    // out[oc, pix] = filters[oc, :] * columns[:, pix]
    gemm(filters, std::span<const float>(columns), out_row, out_channels_, col_rows,
         col_cols);
    vec.bias_planes(out_row.data(), bias.data(), out_channels_, col_cols, relu_);
  }
}

void Conv2d::backward(const Shape3& in, std::span<const float> params, const Tensor& x,
                      const Tensor& y, Tensor& grad_out, Tensor* grad_in,
                      std::span<float> grad_params) const {
  const ConvGeometry g = geometry(in);
  const std::int64_t batch = x.dim(0);
  const std::int64_t col_rows = g.col_rows();
  const std::int64_t col_cols = g.col_cols();
  const std::int64_t plane_size = out_channels_ * col_cols;
  FEDHISYN_CHECK(grad_out.numel() == batch * plane_size);
  FEDHISYN_CHECK(!relu_ || y.numel() == grad_out.numel());
  FEDHISYN_CHECK(static_cast<std::int64_t>(grad_params.size()) == param_count(in));

  const auto filters = params.subspan(0, static_cast<std::size_t>(out_channels_ * col_rows));
  auto grad_filters = grad_params.subspan(0, static_cast<std::size_t>(out_channels_ * col_rows));
  auto grad_bias = grad_params.subspan(static_cast<std::size_t>(out_channels_ * col_rows),
                                       static_cast<std::size_t>(out_channels_));

  // The filter gradient accumulates transposed, dFt[cr, oc], over the batch
  // from +0 with an accumulating NT, and is transposed into grad_filters
  // once at the end.  Each element is the same float sum as accumulating
  // dFilters[oc, cr] directly: IEEE products commute, every sample's pixel
  // terms add in ascending order from +0 (so an all -0 dot is +0), and each
  // sample adds C + dot in batch order.  The transposed form makes NT pack grad_out
  // (oc x pix) as its B operand instead of the far larger column matrix.
  auto dft = ScratchArena::buffer(ScratchArena::kConvFilterGradT,
                                  static_cast<std::size_t>(col_rows * out_channels_));
  fill(dft, 0.0f);
  fill(grad_bias, 0.0f);
  // col2im overwrites each sample's row of grad_in.
  if (grad_in != nullptr) grad_in->resize({batch, in.c, in.h, in.w});

  const gemmk::VecPlane& vec = gemm_runtime_config().plane;
  // Serial over the batch: the filter gradient accumulates in batch order.
  auto columns = ScratchArena::buffer(
      ScratchArena::kConvColumns, static_cast<std::size_t>(col_rows * col_cols));
  const auto grad_columns =
      grad_in == nullptr ? std::span<float>()
                         : ScratchArena::buffer(ScratchArena::kConvGradColumns,
                                                static_cast<std::size_t>(col_rows * col_cols));
  for (std::int64_t b = 0; b < batch; ++b) {
    im2col(x.row(b), g, columns);
    const auto go_row = grad_out.row(b);
    // Mask grad_out by the folded ReLU (y > 0).
    if (relu_) vec.relu_mask(go_row.data(), y.row(b).data(), plane_size);
    vec.channel_sums(go_row.data(), out_channels_, col_cols, grad_bias.data());
    // dFt[cr, oc] += columns[cr, pix] * grad_out[oc, pix]^T
    gemm_nt(std::span<const float>(columns), go_row, dft, col_rows, col_cols, out_channels_,
            /*accumulate=*/true);
    if (grad_in == nullptr) continue;
    // dColumns[cr, pix] = filters^T[cr, oc] * grad_out[oc, pix]
    gemm_tn(filters, go_row, grad_columns, col_rows, out_channels_, col_cols);
    col2im(grad_columns, g, grad_in->row(b));
  }
  for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
    float* dst = grad_filters.data() + oc * col_rows;
    for (std::int64_t cr = 0; cr < col_rows; ++cr) dst[cr] = dft[cr * out_channels_ + oc];
  }
}

}  // namespace fedhisyn::nn
