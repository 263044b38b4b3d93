// AVX-512F GEMM micro-kernel: 8x16, one zmm column of accumulators, and the
// 16-lane vector plane (tensor/gemm_plane.inc).
// Same construction as the AVX2 TU: function-level `target("avx512f")`
// attributes (no per-file -mavx512f), runtime __builtin_cpu_supports
// dispatch, and strictly mul-then-add arithmetic — the target attribute
// enables avx512f only, and each k term is one rounded _mm512_mul_ps plus
// one rounded _mm512_add_ps, so results are bit-identical to the generic
// kernel (gemm_kernel.hpp).
#include "tensor/gemm_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace fedhisyn::gemmk {

namespace {

#if defined(__x86_64__) || defined(__i386__)

bool avx512_supported() { return __builtin_cpu_supports("avx512f") != 0; }

// C moves under the column mask `cols` (a zero lane is neither read nor
// written and never faults), and rows past mr_valid are skipped, so an
// edge tile touches only its valid corner.
__attribute__((target("avx512f"))) void kloop_8x16(
    const float* const* a, std::int64_t a_step, const float* b, std::int64_t ldb,
    std::int64_t k, float* c, std::int64_t ldc, std::int64_t mr_valid,
    std::int64_t nr_valid, StoreMode mode) {
  const __mmask16 cols = static_cast<__mmask16>((1u << nr_valid) - 1);
  __m512 vacc[8];
  const float* ar[8];
#pragma GCC unroll 8
  for (int ii = 0; ii < 8; ++ii) {
    vacc[ii] = mode == StoreMode::kInitFromC && ii < mr_valid
                   ? _mm512_maskz_loadu_ps(cols, c + ii * ldc)
                   : _mm512_setzero_ps();
    ar[ii] = a[ii];
  }
  if (nr_valid == 16) {
    for (std::int64_t p = 0; p < k; ++p) {
      const __m512 bv = _mm512_loadu_ps(b + p * ldb);
      const std::int64_t off = p * a_step;
      for (int ii = 0; ii < 8; ++ii) {
        vacc[ii] = _mm512_add_ps(vacc[ii], _mm512_mul_ps(_mm512_set1_ps(ar[ii][off]), bv));
      }
    }
  } else {
    // A ragged last sub-panel loads B under the column mask.  GCC 12 never
    // keeps a loop-invariant k-mask in a k register: it re-moves it from a
    // general register every iteration, or, with every general register
    // taken by the row pointers, reloads it from the stack.  So the mask
    // lives as a zmm of all-ones lanes and each iteration turns it back
    // into a k-mask with one vptestmd; the empty asm keeps GCC from
    // hoisting that test out of the loop.
    __m512i valid = _mm512_maskz_set1_epi32(cols, -1);
    for (std::int64_t p = 0; p < k; ++p) {
      __asm__("" : "+v"(valid));
      const __m512 bv =
          _mm512_maskz_loadu_ps(_mm512_test_epi32_mask(valid, valid), b + p * ldb);
      const std::int64_t off = p * a_step;
      for (int ii = 0; ii < 8; ++ii) {
        vacc[ii] = _mm512_add_ps(vacc[ii], _mm512_mul_ps(_mm512_set1_ps(ar[ii][off]), bv));
      }
    }
  }
#pragma GCC unroll 8
  for (int ii = 0; ii < 8; ++ii) {
    if (ii >= mr_valid) break;
    float* ci = c + ii * ldc;
    __m512 v = vacc[ii];
    if (mode == StoreMode::kAddAtStore) v = _mm512_add_ps(_mm512_maskz_loadu_ps(cols, ci), v);
    _mm512_mask_storeu_ps(ci, cols, v);
  }
}

// The driver's row-pointer array must fit this tile.
static_assert(8 <= kMaxMR);

#else  // non-x86: the variant exists but reports unsupported.

bool avx512_supported() { return false; }

#endif

}  // namespace

}  // namespace fedhisyn::gemmk

#if defined(__x86_64__) || defined(__i386__)
#define FEDHISYN_PLANE_TARGET __attribute__((target("avx512f")))
#define FEDHISYN_PLANE_LANES 16
#include "tensor/gemm_plane.inc"
#endif

namespace fedhisyn::gemmk {

const GemmKernel& gemm_variant_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  static const GemmKernel kernel{"avx512", avx512_supported, 8, 16, kloop_8x16, kVecPlane};
#else
  static const GemmKernel kernel{"avx512", avx512_supported, 8, 16, nullptr, {}};
#endif
  return kernel;
}

}  // namespace fedhisyn::gemmk
