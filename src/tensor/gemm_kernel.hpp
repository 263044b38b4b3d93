// Internal micro-kernel ABI of the blocked GEMM family (tensor/gemm.cpp)
// and its arch-specialised implementations (gemm_kernels_*.cpp).
//
// One blocked driver serves every ISA: it hands a micro-kernel MR row
// pointers into op(A) (read in place, never packed), op(B) either in place
// or as a packed NR-wide sub-panel, and the tile's corner of C itself.
// Every tile of every op stores straight to C: an edge tile's kernel loads
// and stores only its mr_valid x nr_valid valid corner (masked moves on
// avx512 and avx2, scalar tail loops on generic), so there is no staging
// tile.  Only the k-loop is ISA-specific, so a variant is one function
// pointer plus its register-tile shape, one tile per ISA: generic 4x8,
// avx2 8x8 and avx512 8x16, together with the variant's vector plane
// (VecPlane below) for the step's elementwise loops.
//
// The k-loop contract is the repo's byte-identity contract in miniature.
// Every valid element gets dot = +0.0f + sum over p ascending of
// a[ii][p*a_step] * b[p*ldb + jj], stored as c[ii*ldc + jj] = dot
// (kOverwrite) or c[ii*ldc + jj] = c[ii*ldc + jj] + dot (kAddAtStore),
// with exactly one IEEE-rounded multiply and one IEEE-rounded add per term
// (NO fused multiply-add: contraction skips the product rounding and would
// make an FMA variant's bytes diverge from the generic kernel's — the
// library compiles with -ffp-contract=off, see CMakeLists.txt, and
// tests/tensor_test.cpp demands exact float equality across every variant).
// Under that contract the register-tile shape, the ISA, the tile-grid
// sizes, whether an operand is packed and whether a tile is masked are
// pure scheduling knobs: every variant produces identical bits.
//
// Every kernel keeps its C tile in registers for the whole
// call: the loops that initialise and store the accumulators carry
// `#pragma GCC unroll <MR>`.  Without it GCC keeps the accumulator array in
// memory, clears it with `rep stos` and moves every accumulator through the
// stack on the way in and out — about 20 ns per tile at any k, the same
// bits.  A full-width tile (nr_valid == NR) runs the unmasked k-loop; only
// a ragged last column sub-panel loads B under a mask.
// tools/check_kernel_codegen.py fails the build's kernel objects on a stack
// tile, on a mask moved through the stack and on a conditional jump that
// crosses or ends on a 32-byte boundary.
//
// Runtime selection (CPUID dispatch, FEDHISYN_GEMM_KERNEL) lives one layer
// up in tensor/gemm_tune.hpp.
#pragma once

#include <cstdint>

namespace fedhisyn {
struct ConvGeometry;  // tensor/im2col.hpp
}  // namespace fedhisyn

namespace fedhisyn::gemmk {

/// The three public entry points' operand layouts (gemm / gemm_nt / gemm_tn).
/// Only the operand addressing differs per op; the k-loop is op-agnostic.
enum class GemmOp { kNN, kNT, kTN };

/// How a tile's dot lands in C (the contract above).  The driver picks
/// kAddAtStore for an accumulating gemm_nt and kOverwrite for every other
/// call.
enum class StoreMode { kOverwrite, kAddAtStore };

/// Tallest register tile any variant declares; the driver's row-pointer
/// array is sized to this.  Each kernel TU static_asserts that its tile
/// fits.
inline constexpr std::int64_t kMaxMR = 8;

/// Micro-kernel k-loop: compute one mr x nr register tile over the whole k
/// extent and store its mr_valid x nr_valid corner, per the contract above.
///   * `a` holds mr row pointers into op(A): a[ii][p*a_step] is row ii's
///     k-th term.  a_step is 1 for NN/NT (an A row is contiguous in k) and
///     m for TN (A is stored k x m).  The driver points rows past mr_valid
///     at the last valid row, so every read is in bounds; their results are
///     never stored.
///   * `b` is op(B) at the tile's first column with row stride `ldb`: B in
///     place (ldb = n) or a packed sub-panel (ldb = nr).  Only
///     columns [0, nr_valid) are read.
///   * `c` is the tile's corner of C with row stride `ldc`.  Only rows
///     [0, mr_valid) and columns [0, nr_valid) are read or written:
///     1 <= mr_valid <= mr, 1 <= nr_valid <= nr.
using KloopFn = void (*)(const float* const* a, std::int64_t a_step,
                         const float* b, std::int64_t ldb, std::int64_t k,
                         float* c, std::int64_t ldc, std::int64_t mr_valid,
                         std::int64_t nr_valid, StoreMode mode);

/// The vector plane: the local-SGD step's elementwise and reduction loops
/// and the synthetic-data Mixer, built per ISA beside the variant's k-loop
/// (tensor/gemm_plane.inc).  Each entry runs one whole loop, so a caller
/// reads the table once per call, never per element.  Every entry keeps the
/// per-element operation sequence of the scalar loop it replaces: a float
/// product, a widening only where the scalar code widens, then the add; it
/// is vectorised across independent outputs only, never along a sum, with
/// no fused multiply-add.  So, like the k-loop, the ISA is a pure schedule
/// and every variant's plane produces identical bits.
struct VecPlane {
  /// The synthetic-data Mixer: x[i] = float(double(x[i]) + sum over j
  /// ascending of double(rt[j*dim + i] * x[j])), each output its own double
  /// chain; `acc` is dim doubles of scratch.
  void (*mix)(const float* rt, std::int64_t dim, float* x, double* acc);
  /// Dense forward: y[r*cols + j] += bias[j], then max-with-+0 when `relu`
  /// (t > 0 ? t : +0, so NaN and -0 land as +0).
  void (*bias_cols)(float* y, const float* bias, std::int64_t rows, std::int64_t cols,
                    bool relu);
  /// Dense backward: when `y` is non-null, grad[r*cols + j] = y[..] > 0 ?
  /// grad[..] : +0 (the folded ReLU's mask); then db[j] = +0 + the column's
  /// (masked) grads in row order.
  void (*mask_col_sums)(float* grad, const float* y, float* db, std::int64_t rows,
                        std::int64_t cols);
  /// Conv2d forward: plane p of `planes` planes of `size` floats adds
  /// bias[p], then max-with-+0 when `relu`.
  void (*bias_planes)(float* y, const float* bias, std::int64_t planes, std::int64_t size,
                      bool relu);
  /// The folded ReLU's mask: g[i] = y[i] > 0 ? g[i] : +0.
  void (*relu_mask)(float* g, const float* y, std::int64_t n);
  /// sums[c] += float(+0 + double(planes[c*pixels + p]) over p ascending),
  /// one double chain per channel.
  void (*channel_sums)(const float* planes, std::int64_t channels, std::int64_t pixels,
                       float* sums);
  /// w -= lr * g
  void (*sgd)(float* w, const float* g, float lr, std::int64_t n);
  /// w -= lr * (g + mu * (w - anchor))
  void (*prox_sgd)(float* w, const float* g, const float* anchor, float lr, float mu,
                   std::int64_t n);
  /// v = momentum * v + g; w -= lr * v
  void (*momentum_sgd)(float* w, const float* g, float* v, float lr, float momentum,
                       std::int64_t n);
  /// w -= lr * (g - c_local + c_global)
  void (*scaffold)(float* w, const float* g, const float* c_local, const float* c_global,
                   float lr, std::int64_t n);
  /// acc[j] += weight * double(in[j])
  void (*scaled_add)(double* acc, const float* in, double weight, std::int64_t n);
  /// 2x2 max-pool of `planes` h x w planes into (h/2) x (w/2) planes:
  /// m = max(max(max(v00, v01), v10), v11) with std::max's first-wins ties.
  void (*maxpool2_forward)(const float* x, float* y, std::int64_t planes, std::int64_t h,
                           std::int64_t w);
  /// Routes each window's gradient to its first argmax (forward's
  /// tie-breaking, NaN included) as +0 + g; every other input cell, and an
  /// odd width's last column and an odd height's last row, gets +0.
  void (*maxpool2_backward)(const float* x, const float* grad_out, float* grad_in,
                            std::int64_t planes, std::int64_t h, std::int64_t w);
  /// im2col's column rows read from the zero-bordered padded plane
  /// (tensor/im2col.hpp): columns[(c,ky,kx), (y,x)] = padded[c, y*s+ky, x*s+kx].
  void (*im2col_rows)(const float* padded, const ConvGeometry& g, float* columns);
  /// col2im's scatter-add into the padded plane, (c,ky,kx) ascending:
  /// padded[c, y*s+ky, x*s+kx] += columns[(c,ky,kx), (y,x)].
  void (*col2im_rows)(const float* columns, const ConvGeometry& g, float* padded);
  /// y[i] = expf(x[i]) with the bits of glibc 2.36's non-FMA expf, computed
  /// in-tree (no libm call).
  void (*expf)(const float* x, float* y, std::int64_t n);
  /// Softmax cross-entropy (softmax_xent_rows, tensor/ops.hpp) of `rows`
  /// rows of `cols` logits whose labels all lie in [0, cols): returns the
  /// sum in row order of log(sum_c expf(x_c - max)) + max - x_label, and
  /// when `grad` is non-null writes the gradient scaled by 1/rows there.
  double (*softmax_xent)(const float* logits, const std::int32_t* labels, std::int64_t rows,
                         std::int64_t cols, float* grad);
};

/// One ISA variant: a runtime support predicate, its one register tile and
/// its vector plane.
struct GemmKernel {
  const char* name;     // "generic", "avx2", "avx512"
  bool (*supported)();  // runtime CPUID on x86; generic is always true
  std::int64_t mr;
  std::int64_t nr;
  KloopFn kloop;   // nullptr where the ISA cannot be compiled
  VecPlane plane;  // all entries nullptr where the ISA cannot be compiled
};

/// The three variants.  Every accessor exists on every platform; off x86
/// the avx2/avx512 entries report supported() == false (so forcing them
/// fails loudly, not mysteriously).
const GemmKernel& gemm_variant_generic();  // always supported
const GemmKernel& gemm_variant_avx2();
const GemmKernel& gemm_variant_avx512();

/// The tile-grid sizes the driver derives from a kernel's register tile:
/// column panels of 512 columns rounded up to a multiple of nr, and row
/// tasks of two register tiles.  One kernel per process means one schedule.
inline std::int64_t panel_width(const GemmKernel& kernel) {
  return (512 + kernel.nr - 1) / kernel.nr * kernel.nr;
}
inline std::int64_t task_rows(const GemmKernel& kernel) { return 2 * kernel.mr; }

}  // namespace fedhisyn::gemmk
