// im2col / col2im for the convolution layer.  Layout: input [C,H,W] row-major
// per sample; column matrix is [C*KH*KW, OH*OW] so conv becomes a GEMM with
// the [OC, C*KH*KW] filter matrix (the wide-N shape the blocked kernel in
// tensor/gemm.hpp tiles over column panels).  Both directions go through a
// per-thread zero-bordered [C, H+2p, W+2p] plane (ScratchArena::kConvPadded):
// im2col copies the sample into it, col2im scatter-adds into it from +0 and
// copies its interior out, so every column row is a plain strided read or
// add of that plane and no element is bounds-tested; the row loops run in
// the vector plane (tensor/gemm_kernel.hpp VecPlane).
#pragma once

#include <cstdint>
#include <span>

namespace fedhisyn {

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t kernel = 0;   // square kernel KHxKW = kernel x kernel
  std::int64_t stride = 1;
  std::int64_t padding = 0;

  std::int64_t out_height() const { return (height + 2 * padding - kernel) / stride + 1; }
  std::int64_t out_width() const { return (width + 2 * padding - kernel) / stride + 1; }
  std::int64_t col_rows() const { return channels * kernel * kernel; }
  std::int64_t col_cols() const { return out_height() * out_width(); }
};

/// Expand one sample (C*H*W floats) into the column matrix (col_rows x col_cols).
void im2col(std::span<const float> image, const ConvGeometry& g, std::span<float> columns);

/// Scatter-add the column matrix back into an image gradient (C*H*W floats).
/// `image_grad` is overwritten, never read: each element is +0 plus its
/// (ky, kx) terms in ascending order, and an element no column covers is +0.
void col2im(std::span<const float> columns, const ConvGeometry& g, std::span<float> image_grad);

}  // namespace fedhisyn
