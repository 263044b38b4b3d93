#include "tensor/im2col.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn {

namespace {

std::int64_t padded_height(const ConvGeometry& g) { return g.height + 2 * g.padding; }
std::int64_t padded_width(const ConvGeometry& g) { return g.width + 2 * g.padding; }

// Copy one sample's [C,H,W] into the calling thread's [C,H+2p,W+2p] plane
// (ScratchArena::kConvPadded) with a zero border.
float* padded_plane(const float* image, const ConvGeometry& g) {
  const std::int64_t ph = padded_height(g);
  const std::int64_t pw = padded_width(g);
  auto plane = ScratchArena::buffer(ScratchArena::kConvPadded,
                                    static_cast<std::size_t>(g.channels * ph * pw));
  std::fill(plane.begin(), plane.end(), 0.0f);
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t y = 0; y < g.height; ++y) {
      const float* src = image + (c * g.height + y) * g.width;
      std::copy(src, src + g.width, plane.data() + (c * ph + y + g.padding) * pw + g.padding);
    }
  }
  return plane.data();
}

}  // namespace

void im2col(std::span<const float> image, const ConvGeometry& g, std::span<float> columns) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(image.size()) >= g.channels * g.height * g.width);
  FEDHISYN_CHECK(static_cast<std::int64_t>(columns.size()) >= g.col_rows() * g.col_cols());
  const float* plane = padded_plane(image.data(), g);
  gemm_runtime_config().plane.im2col_rows(plane, g, columns.data());
}

void col2im(std::span<const float> columns, const ConvGeometry& g, std::span<float> image_grad) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(image_grad.size()) >= g.channels * g.height * g.width);
  FEDHISYN_CHECK(static_cast<std::int64_t>(columns.size()) >= g.col_rows() * g.col_cols());
  const std::int64_t ph = padded_height(g);
  const std::int64_t pw = padded_width(g);
  // The plane starts as image_grad (zero border), so each interior element
  // adds its (ky, kx) terms onto image_grad's value in ascending order —
  // the same sums as adding straight into image_grad.  Border sums are
  // dropped.
  float* plane = padded_plane(image_grad.data(), g);
  gemm_runtime_config().plane.col2im_rows(columns.data(), g, plane);
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t y = 0; y < g.height; ++y) {
      const float* src = plane + (c * ph + y + g.padding) * pw + g.padding;
      std::copy(src, src + g.width, image_grad.data() + (c * g.height + y) * g.width);
    }
  }
}

}  // namespace fedhisyn
