#include "tensor/im2col.hpp"

#include <algorithm>
#include <type_traits>

#include "common/check.hpp"
#include "common/parallel.hpp"

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

// Run body(stride) with the stride as a compile-time constant when it is 1,
// as in every model here, so the row loops below compile to contiguous
// vector copies; other strides run the same loops with a runtime stride.
template <class Body>
void with_stride(std::int64_t stride, const Body& body) {
  if (stride == 1) {
    body(std::integral_constant<std::int64_t, 1>{});
  } else {
    body(stride);
  }
}

// Run body(width) with the output width as a compile-time constant for 8
// and 4, the laptop-scale widths of the paper CNN's conv1 and conv2, so each
// row copy unrolls into a few vector moves instead of a short counted loop;
// other widths run the same loops with a runtime width.
template <class Body>
void with_width(std::int64_t width, const Body& body) {
  switch (width) {
    case 8: body(std::integral_constant<std::int64_t, 8>{}); return;
    case 4: body(std::integral_constant<std::int64_t, 4>{}); return;
    default: body(width);
  }
}

// Both of the above: body(stride, width).
template <class Body>
void with_stride_and_width(const ConvGeometry& g, const Body& body) {
  with_stride(g.stride, [&](auto stride) {
    with_width(g.out_width(), [&](auto width) { body(stride, width); });
  });
}

}  // namespace

void im2col(std::span<const float> image, const ConvGeometry& g, std::span<float> columns) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(image.size()) >= g.channels * g.height * g.width);
  FEDHISYN_CHECK(static_cast<std::int64_t>(columns.size()) >= g.col_rows() * g.col_cols());
  const std::int64_t oh = g.out_height();
  const std::int64_t ph = padded_height(g);
  const std::int64_t pw = padded_width(g);
  const float* plane = padded_plane(image.data(), g);
  with_stride_and_width(g, [&](auto stride, auto ow) {
    float* out = columns.data();
    for (std::int64_t c = 0; c < g.channels; ++c) {
      for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
          // Column row (c, ky, kx): out[y, x] = plane[c, y*s + ky, x*s + kx].
          const float* src = plane + (c * ph + ky) * pw + kx;
          for (std::int64_t y = 0; y < oh; ++y, out += ow) {
            const float* in = src + y * stride * pw;
            for (std::int64_t x = 0; x < ow; ++x) out[x] = in[x * stride];
          }
        }
      }
    }
  });
}

void col2im(std::span<const float> columns, const ConvGeometry& g, std::span<float> image_grad) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(image_grad.size()) >= g.channels * g.height * g.width);
  FEDHISYN_CHECK(static_cast<std::int64_t>(columns.size()) >= g.col_rows() * g.col_cols());
  const std::int64_t oh = g.out_height();
  const std::int64_t ph = padded_height(g);
  const std::int64_t pw = padded_width(g);
  // The plane starts as image_grad (zero border), so each interior element
  // adds its (ky, kx) terms onto image_grad's value in ascending order —
  // the same sums as adding straight into image_grad.  Border sums are
  // dropped.
  float* plane = padded_plane(image_grad.data(), g);
  with_stride_and_width(g, [&](auto stride, auto ow) {
    const float* in = columns.data();
    for (std::int64_t c = 0; c < g.channels; ++c) {
      for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
          float* dst = plane + (c * ph + ky) * pw + kx;
          for (std::int64_t y = 0; y < oh; ++y, in += ow) {
            float* out = dst + y * stride * pw;
            for (std::int64_t x = 0; x < ow; ++x) out[x * stride] += in[x];
          }
        }
      }
    }
  });
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t y = 0; y < g.height; ++y) {
      const float* src = plane + (c * ph + y + g.padding) * pw + g.padding;
      std::copy(src, src + g.width, image_grad.data() + (c * g.height + y) * g.width);
    }
  }
}

}  // namespace fedhisyn
