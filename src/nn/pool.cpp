#include "nn/pool.hpp"

#include "common/check.hpp"

namespace fedhisyn::nn {

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
  grad_in->fill(0.0f);
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* src = x.row(b).data();
    const float* go = grad_out.row(b).data();
    float* gi = grad_in->row(b).data();
    for (std::int64_t c = 0; c < in.c; ++c) {
      const float* plane = src + c * in.h * in.w;
      const float* goplane = go + c * out.h * out.w;
      float* giplane = gi + c * in.h * in.w;
      for (std::int64_t oy = 0; oy < out.h; ++oy) {
        for (std::int64_t ox = 0; ox < out.w; ++ox) {
          const std::int64_t sy = oy * 2;
          const std::int64_t sx = ox * 2;
          // Route the gradient to the (first) argmax of the 2x2 window,
          // matching forward's tie-breaking (first max wins).
          std::int64_t best_y = sy;
          std::int64_t best_x = sx;
          float best = plane[sy * in.w + sx];
          const std::int64_t cand[3][2] = {{sy, sx + 1}, {sy + 1, sx}, {sy + 1, sx + 1}};
          for (const auto& yx : cand) {
            const float v = plane[yx[0] * in.w + yx[1]];
            if (v > best) {
              best = v;
              best_y = yx[0];
              best_x = yx[1];
            }
          }
          giplane[best_y * in.w + best_x] += goplane[oy * out.w + ox];
        }
      }
    }
  }
}

}  // namespace fedhisyn::nn
