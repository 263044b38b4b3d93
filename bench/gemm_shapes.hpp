// The GEMM shape sweep of bench_gemm_sweep (the BENCH_gemm.json emitter the
// CI gate consumes): dense-MLP forward/backward at laptop and full batch,
// and the CNN im2col family (forward, filter-gradient, column-gradient) at
// a paper-scale conv layer (128 -> 64 channels, 3x3 kernel, 32x32 output:
// k = 128*3*3, n = 32*32).
// cnn_im2col is the acceptance shape (k >= 256, n >= 256).  The mlp_small_*
// trio is the middle layer of the laptop MLP at batch 50 (forward, dW, dx):
// tiny calls that Table 1 makes millions of, gated so a slow small-shape
// path cannot come back unnoticed.  mlp0_fwd / mlp0_dw are the first layer
// of the mnist MLP at batch 50 (forward, dW), where Table 1 spends most of
// its GEMM time.  The paper_cnn_* shapes are the per-sample GEMMs of the
// paper CNN as Table 1 runs it (cifar10 at 3x8x8, 5x5 convs with padding 2,
// 16 and 32 channels): conv1/conv2 forward (NN), their transposed filter
// gradients dFt = columns * grad_out^T (NT) and conv2's column gradient
// (TN).  They are not in the baseline yet, so the gate reports them as new.
// The mlp_in_* / mlp_out_* shapes are the laptop-scale mnist MLP
// (64-32-16-10) at batch 50: its first layer forward (NN 50x64x32) and its
// 10-wide output layer forward and dW (NN 50x16x10, TN 16x50x10), whose
// ragged last column sub-panel is read in place and stored under a mask.
//
// Shape names are the keys of bench/baselines/BENCH_gemm.json — renaming or
// removing one requires a baseline refresh (see README "Performance").
#pragma once

#include <cstdint>

namespace fedhisyn::bench {

enum class GemmVariant { kNN, kNT, kTN };

struct GemmShape {
  const char* name;
  GemmVariant variant;
  std::int64_t m, k, n;
};

inline constexpr GemmShape kGemmSweepShapes[] = {
    {"mlp_fwd", GemmVariant::kNN, 50, 64, 200},
    {"mlp_fwd_big", GemmVariant::kNN, 256, 64, 200},
    {"mlp_bwd_dw", GemmVariant::kTN, 64, 256, 200},
    {"mlp_bwd_dx", GemmVariant::kNT, 256, 200, 64},
    {"mlp_small_fwd", GemmVariant::kNN, 50, 32, 16},
    {"mlp_small_dw", GemmVariant::kTN, 32, 50, 16},
    {"mlp_small_dx", GemmVariant::kNT, 50, 16, 32},
    {"mlp0_fwd", GemmVariant::kNN, 50, 784, 32},
    {"mlp0_dw", GemmVariant::kTN, 784, 50, 32},
    {"cnn_im2col", GemmVariant::kNN, 64, 1152, 1024},
    {"cnn_dfilters", GemmVariant::kNT, 64, 1024, 1152},
    {"cnn_dcols", GemmVariant::kTN, 1152, 64, 1024},
    {"paper_cnn_conv1_fwd", GemmVariant::kNN, 16, 75, 64},
    {"paper_cnn_conv2_fwd", GemmVariant::kNN, 32, 400, 16},
    {"paper_cnn_conv1_dft", GemmVariant::kNT, 75, 64, 16},
    {"paper_cnn_conv2_dft", GemmVariant::kNT, 400, 16, 32},
    {"paper_cnn_conv2_dcols", GemmVariant::kTN, 400, 32, 16},
    {"mlp_in_fwd", GemmVariant::kNN, 50, 64, 32},
    {"mlp_out_fwd", GemmVariant::kNN, 50, 16, 10},
    {"mlp_out_dw", GemmVariant::kTN, 16, 50, 10},
};

}  // namespace fedhisyn::bench
