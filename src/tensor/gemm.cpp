// Blocked GEMM driver (BLIS/GotoBLAS-style, sized for this simulator).  One
// driver serves all three operand layouts and every micro-kernel variant
// (gemm_kernels_*.cpp, selected once per process by tensor/gemm_tune.cpp):
//
//   * Runs serially on the calling thread.  Parallelism lives one level up,
//     in the loops over training jobs (docs/ARCHITECTURE.md, "One level of
//     parallelism"); no GEMM reaches the pool.
//   * Three loops, sized from the selected kernel's register tile
//     (gemmk::panel_width / gemmk::strip_rows): column panels of NC
//     columns, each packed once; row strips of two MR tiles; NR-wide
//     sub-panels, whose register tiles run down the strip.
//   * A is never packed: the micro-kernel reads op(A) in place through MR
//     row pointers and a k step (1 for NN/NT, m for TN).  Rows past a
//     strip's end point at its last valid row and are never stored.
//   * B is read in place for NN/TN shapes whose B rows are under 512 bytes
//     (n < 128): op(B) is B, row stride n, and a ragged last sub-panel is
//     read under the kernel's column mask.  B is packed once per panel
//     into a 64-byte-aligned ScratchArena buffer of NR-wide
//     sub-panels for NT (op(B) = B^T strides k per column) and for
//     wider rows.  The bound is the measured crossover (bench_gemm_sweep,
//     1 thread, best of 6 runs on a 4-vCPU AVX-512 Xeon, avx512 and forced
//     avx2): in place wins on 50x784xn NN and 784x50xn TN for n <= 100 (up
//     to 19% on avx2), splits at n = 128 (NN +10%/-1%, TN -6%/-8%), and
//     loses from n = 200 (NN -4%/-9%, TN -3%/-7%; 784x50x256 TN -21% on
//     avx512).  On the 64x1152x1024 conv shape (B rows 4 KiB apart) in
//     place ran over 2x slower than packing.
//   * Every tile, full or edge, of every op stores straight to C: the
//     kernel moves only the tile's valid corner and applies the store mode
//     itself (gemm_kernel.hpp), so there is no staging tile.
//   * The k-loop always covers the *full* k extent: k is never split and
//     every C element sees its k terms in ascending order, so results are
//     bit-identical for any tiling, any kernel variant
//     (FEDHISYN_GEMM_KERNEL), packed or in place — the determinism
//     contract of gemm_kernel.hpp.
//   * Every shape takes this driver, down to the 50x16x10 layers of the
//     paper MLPs.
//
// One accumulate semantic: every element's dot product sums its k terms from
// +0, and only gemm_nt can add it to C, once, at the store (the conv filter
// gradient's sum over the batch); gemm and gemm_tn always overwrite C.  The
// old `a == 0` skip is gone: it made timing data-dependent (ReLU activations
// are full of exact zeros) and broke FP contraction uniformity between the
// skip and non-skip paths.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn {

namespace {

using gemmk::GemmKernel;
using gemmk::GemmOp;

// NN/TN read B in place while a B row is shorter than this (see the header).
constexpr std::int64_t kInPlaceBRowBytes = 512;

// Pack the column panel [jc, jc+nc) of op(B) into bp as nr-wide sub-panels:
// bp[(jr/nr)*(k*nr) + p*nr + jj] = op(B)(p, jc+jr+jj).  A ragged last
// sub-panel leaves its lanes past n unwritten: the kernel reads only its
// nr_valid columns.
template <GemmOp V>
void pack_b_panel(const float* b, std::int64_t k, std::int64_t n, std::int64_t jc,
                  std::int64_t nc, std::int64_t nr, float* bp) {
  for (std::int64_t jr = 0; jr < nc; jr += nr) {
    const std::int64_t width = std::min(nr, nc - jr);
    float* panel = bp + (jr / nr) * (k * nr);
    const std::int64_t j0 = jc + jr;
    if constexpr (V == GemmOp::kNT) {
      // B is (n x k) row-major and op(B) = B^T: read B's rows contiguously,
      // scatter into the panel (resident), instead of striding k per element.
      for (std::int64_t jj = 0; jj < width; ++jj) {
        const float* src = b + (j0 + jj) * k;
        for (std::int64_t p = 0; p < k; ++p) panel[p * nr + jj] = src[p];
      }
    } else {
      for (std::int64_t p = 0; p < k; ++p) {
        const float* src = b + p * n + j0;
        float* out = panel + p * nr;
        for (std::int64_t jj = 0; jj < width; ++jj) out[jj] = src[jj];
      }
    }
  }
}

// One register tile at (i0, j0) with an mr_valid x nr_valid valid corner,
// stored straight to C.  `a` addresses op(A) as a + i*a_pitch + p*a_step;
// `b`/`ldb` is the tile's op(B) sub-panel, in place or packed.
void run_micro_tile(const float* a, std::int64_t a_pitch, std::int64_t a_step,
                    const float* b, std::int64_t ldb, float* c, std::int64_t n,
                    std::int64_t k, std::int64_t i0, std::int64_t j0,
                    std::int64_t mr_valid, std::int64_t nr_valid,
                    gemmk::StoreMode mode, const GemmKernel& kernel) {
  const float* rows[gemmk::kMaxMR];
  for (std::int64_t ii = 0; ii < kernel.mr; ++ii) {
    rows[ii] = a + (i0 + std::min(ii, mr_valid - 1)) * a_pitch;
  }
  kernel.kloop(rows, a_step, b, ldb, k, c + i0 * n + j0, n, mr_valid, nr_valid, mode);
}

template <GemmOp V>
void blocked_gemm(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, bool accumulate,
                  const GemmKernel& kernel) {
  const std::int64_t mr = kernel.mr;
  const std::int64_t nr = kernel.nr;
  const std::int64_t strip_rows = gemmk::strip_rows(kernel);
  const std::int64_t panel_width = gemmk::panel_width(kernel);
  // op(A)(i, p) = a[i*a_pitch + p*a_step].
  const std::int64_t a_pitch = V == GemmOp::kTN ? 1 : k;
  const std::int64_t a_step = V == GemmOp::kTN ? m : 1;
  const bool b_in_place =
      V != GemmOp::kNT && n * std::int64_t{sizeof(float)} < kInPlaceBRowBytes;
  const gemmk::StoreMode mode = V == GemmOp::kNT && accumulate
                                    ? gemmk::StoreMode::kAddAtStore
                                    : gemmk::StoreMode::kOverwrite;
  // One pack buffer per call, as wide as the first (widest) panel.
  std::span<float> packed;
  if (!b_in_place) {
    const std::int64_t width = std::min(panel_width, (n + nr - 1) / nr * nr);
    packed = ScratchArena::buffer(ScratchArena::kGemmPackB,
                                  static_cast<std::size_t>(k * width));
  }
  // Pack-vs-kernel attribution: timed only while tracing is on (the off
  // path must not read a clock), accumulated as microsecond counters so
  // --metrics-out splits GEMM time into B packing and the tiles.
  const bool traced = trace::enabled();

  for (std::int64_t jc = 0; jc < n; jc += panel_width) {
    const std::int64_t t_start = traced ? trace::now_us() : 0;
    const std::int64_t nc = std::min(panel_width, n - jc);
    if (!b_in_place) pack_b_panel<V>(b, k, n, jc, nc, nr, packed.data());
    const std::int64_t t_packed = traced ? trace::now_us() : 0;
    for (std::int64_t i_begin = 0; i_begin < m; i_begin += strip_rows) {
      const std::int64_t i_end = std::min(m, i_begin + strip_rows);
      // B sub-panels outside the strip's tiles: each (k x nr) sub-panel
      // stays L1-hot across the strip's register tiles.
      for (std::int64_t jr = 0; jr < nc; jr += nr) {
        const float* panel = b_in_place ? b + jc + jr : packed.data() + jr * k;
        const std::int64_t ldb = b_in_place ? n : nr;
        const std::int64_t nr_valid = std::min(nr, nc - jr);
        for (std::int64_t i0 = i_begin; i0 < i_end; i0 += mr) {
          run_micro_tile(a, a_pitch, a_step, panel, ldb, c, n, k, i0, jc + jr,
                         std::min(mr, i_end - i0), nr_valid, mode, kernel);
        }
      }
    }
    if (traced) {
      static counters::Counter& pack_us = counters::counter("gemm.pack_us");
      static counters::Counter& kernel_us = counters::counter("gemm.kernel_us");
      pack_us.add(static_cast<std::uint64_t>(t_packed - t_start));
      kernel_us.add(static_cast<std::uint64_t>(trace::now_us() - t_packed));
    }
  }
}

// The one entry behind gemm()/gemm_nt()/gemm_tn(): the callers check the
// operand sizes, the kernel is the process-wide selection.
void gemm_run(GemmOp op, const float* a, const float* b, float* c,
              std::int64_t m, std::int64_t k, std::int64_t n, bool accumulate) {
  static counters::Counter& calls = counters::counter("gemm.calls");
  calls.add(1);
  const GemmKernel& kernel = gemm_runtime_config();
  switch (op) {
    case GemmOp::kNN: blocked_gemm<GemmOp::kNN>(a, b, c, m, k, n, accumulate, kernel); return;
    case GemmOp::kNT: blocked_gemm<GemmOp::kNT>(a, b, c, m, k, n, accumulate, kernel); return;
    case GemmOp::kTN: blocked_gemm<GemmOp::kTN>(a, b, c, m, k, n, accumulate, kernel); return;
  }
}

}  // namespace

void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          std::int64_t m, std::int64_t k, std::int64_t n) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(a.size()) >= m * k);
  FEDHISYN_CHECK(static_cast<std::int64_t>(b.size()) >= k * n);
  FEDHISYN_CHECK(static_cast<std::int64_t>(c.size()) >= m * n);
  gemm_run(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/false);
}

void gemm_nt(std::span<const float> a, std::span<const float> b, std::span<float> c,
             std::int64_t m, std::int64_t k, std::int64_t n, bool accumulate) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(a.size()) >= m * k);
  FEDHISYN_CHECK(static_cast<std::int64_t>(b.size()) >= n * k);
  FEDHISYN_CHECK(static_cast<std::int64_t>(c.size()) >= m * n);
  gemm_run(GemmOp::kNT, a.data(), b.data(), c.data(), m, k, n, accumulate);
}

void gemm_tn(std::span<const float> a, std::span<const float> b, std::span<float> c,
             std::int64_t m, std::int64_t k, std::int64_t n) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(a.size()) >= k * m);
  FEDHISYN_CHECK(static_cast<std::int64_t>(b.size()) >= k * n);
  FEDHISYN_CHECK(static_cast<std::int64_t>(c.size()) >= m * n);
  gemm_run(GemmOp::kTN, a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/false);
}

}  // namespace fedhisyn
