#include "nn/pool.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/check.hpp"

namespace fedhisyn::nn {

namespace {

// All ones when `holds`, else zero: a comparison kept as a bit mask.
std::uint32_t mask_if(bool holds) { return 0u - static_cast<std::uint32_t>(holds); }

}  // namespace

Shape3 MaxPool2::output_shape(const Shape3& in) const {
  FEDHISYN_CHECK_MSG(in.h >= 2 && in.w >= 2, "maxpool2 needs at least 2x2 input");
  return {in.c, in.h / 2, in.w / 2};
}

void MaxPool2::forward(const Shape3& in, std::span<const float>, const Tensor& x,
                       Tensor& y) const {
  const std::int64_t batch = x.dim(0);
  const Shape3 out = output_shape(in);
  y.resize({batch, out.c, out.h, out.w});
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* src = x.row(b).data();
    float* dst = y.row(b).data();
    for (std::int64_t c = 0; c < in.c; ++c) {
      const float* plane = src + c * in.h * in.w;
      float* oplane = dst + c * out.h * out.w;
      for (std::int64_t oy = 0; oy < out.h; ++oy) {
        for (std::int64_t ox = 0; ox < out.w; ++ox) {
          const std::int64_t sy = oy * 2;
          const std::int64_t sx = ox * 2;
          float m = plane[sy * in.w + sx];
          m = std::max(m, plane[sy * in.w + sx + 1]);
          m = std::max(m, plane[(sy + 1) * in.w + sx]);
          m = std::max(m, plane[(sy + 1) * in.w + sx + 1]);
          oplane[oy * out.w + ox] = m;
        }
      }
    }
  }
}

void MaxPool2::backward(const Shape3& in, std::span<const float>, const Tensor& x,
                        const Tensor&, Tensor& grad_out, Tensor* grad_in,
                        std::span<float>) const {
  const std::int64_t batch = x.dim(0);
  const Shape3 out = output_shape(in);
  FEDHISYN_CHECK(grad_out.numel() == batch * out.numel());
  if (grad_in == nullptr) return;
  grad_in->resize({batch, in.c, in.h, in.w});
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* src = x.row(b).data();
    const float* go = grad_out.row(b).data();
    float* gi = grad_in->row(b).data();
    for (std::int64_t c = 0; c < in.c; ++c) {
      const float* plane = src + c * in.h * in.w;
      const float* goplane = go + c * out.h * out.w;
      float* giplane = gi + c * in.h * in.w;
      for (std::int64_t oy = 0; oy < out.h; ++oy) {
        const float* x0 = plane + oy * 2 * in.w;
        const float* x1 = x0 + in.w;
        float* g0 = giplane + oy * 2 * in.w;
        float* g1 = g0 + in.w;
        for (std::int64_t ox = 0; ox < out.w; ++ox) {
          const std::int64_t sx = ox * 2;
          // The (first) argmax of the 2x2 window, matching forward's
          // tie-breaking: the same `v > best` tests in the same order as a
          // scan, each kept as an all-ones or all-zero comparison mask so
          // no branch depends on the data.  A later win overrides an
          // earlier one, so cell i is the argmax when its own test held and
          // no later one did.
          const float v0 = x0[sx];
          const float v1 = x0[sx + 1];
          const float v2 = x1[sx];
          const float v3 = x1[sx + 1];
          const std::uint32_t m1 = mask_if(v1 > v0);
          const float best1 = v1 > v0 ? v1 : v0;
          const std::uint32_t m2 = mask_if(v2 > best1);
          const float best2 = v2 > best1 ? v2 : best1;
          const std::uint32_t m3 = mask_if(v3 > best2);
          // Every cell starts from +0 and the argmax adds the gradient, so a
          // -0 gradient lands as +0.
          const auto g = std::bit_cast<std::uint32_t>(goplane[oy * out.w + ox]);
          g0[sx] = 0.0f + std::bit_cast<float>(g & ~(m1 | m2 | m3));
          g0[sx + 1] = 0.0f + std::bit_cast<float>(g & m1 & ~(m2 | m3));
          g1[sx] = 0.0f + std::bit_cast<float>(g & m2 & ~m3);
          g1[sx + 1] = 0.0f + std::bit_cast<float>(g & m3);
        }
        // An odd width's last column lies in no window.
        if (in.w % 2 != 0) g0[in.w - 1] = g1[in.w - 1] = 0.0f;
      }
      // So does an odd height's last row.
      if (in.h % 2 != 0) std::fill_n(giplane + (in.h - 1) * in.w, in.w, 0.0f);
    }
  }
}

}  // namespace fedhisyn::nn
