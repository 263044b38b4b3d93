// AVX2 GEMM micro-kernel: 8x8, one ymm column of accumulators, and the
// 8-lane vector plane (tensor/gemm_plane.inc).  A
// function-level `target("avx2")` attribute keeps the rest of the TU
// baseline-ISA — no per-file -mavx2, so no AVX2 code can leak into functions
// a non-AVX2 host might execute via comdat folding — and the runtime
// predicate is __builtin_cpu_supports.
//
// Deliberately NO FMA, by construction and not just by flag: the target
// attribute enables avx2 only (not fma), so the compiler *cannot* emit
// vfmadd here, and each k term is one rounded _mm256_mul_ps plus one rounded
// _mm256_add_ps — the exact arithmetic of the generic 4x8 kernel, hence
// bit-identical results (gemm_kernel.hpp).  FMA's unrounded product would
// roughly double peak throughput; the win here comes from the 256-bit lanes
// and the larger register tile instead, which is what the equivalence tests
// and the Table-1 byte-identity suites can afford.
#include "tensor/gemm_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace fedhisyn::gemmk {

namespace {

#if defined(__x86_64__) || defined(__i386__)

bool avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

// 8x8: 8 ymm accumulators + 1 b load + 1 a broadcast = 10 of 16 ymm regs.
// A full tile moves C with plain loads and stores (vmaskmovps is a
// multi-uop instruction, a plain move one).  An edge tile moves it with
// vmaskmovps under a per-row lane mask (all-zero past mr_valid, the first
// nr_valid lanes otherwise): masked-off lanes are neither read nor written
// and never fault.
__attribute__((target("avx2"))) void kloop_8x8(
    const float* const* a, std::int64_t a_step, const float* b, std::int64_t ldb,
    std::int64_t k, float* c, std::int64_t ldc, std::int64_t mr_valid,
    std::int64_t nr_valid, StoreMode mode) {
  const bool full = mr_valid == 8 && nr_valid == 8;
  const __m256i cols = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(nr_valid)),
                                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  // Row ii's lane mask is `ii < mr_valid ? cols : none`, recomputed where it
  // is used: eight mask vectors beside the eight accumulators would not fit
  // the 16 ymm registers.
  const __m256i none = _mm256_setzero_si256();
  __m256 vacc[8];
  const float* ar[8];
#pragma GCC unroll 8
  for (int ii = 0; ii < 8; ++ii) {
    vacc[ii] = _mm256_setzero_ps();
    ar[ii] = a[ii];
  }
  if (nr_valid == 8) {
    for (std::int64_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(b + p * ldb);
      const std::int64_t off = p * a_step;
      for (int ii = 0; ii < 8; ++ii) {
        vacc[ii] = _mm256_add_ps(vacc[ii], _mm256_mul_ps(_mm256_set1_ps(ar[ii][off]), bv));
      }
    }
  } else {
    for (std::int64_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_maskload_ps(b + p * ldb, cols);
      const std::int64_t off = p * a_step;
      for (int ii = 0; ii < 8; ++ii) {
        vacc[ii] = _mm256_add_ps(vacc[ii], _mm256_mul_ps(_mm256_set1_ps(ar[ii][off]), bv));
      }
    }
  }
#pragma GCC unroll 8
  for (int ii = 0; ii < 8; ++ii) {
    float* ci = c + ii * ldc;
    const __m256i lanes = ii < mr_valid ? cols : none;
    __m256 v = vacc[ii];
    if (mode == StoreMode::kAddAtStore) {
      v = _mm256_add_ps(full ? _mm256_loadu_ps(ci) : _mm256_maskload_ps(ci, lanes), v);
    }
    if (full) {
      _mm256_storeu_ps(ci, v);
    } else {
      _mm256_maskstore_ps(ci, lanes, v);
    }
  }
}

// The driver's row-pointer array must fit this tile.
static_assert(8 <= kMaxMR);

#else  // non-x86: the variant exists but reports unsupported.

bool avx2_supported() { return false; }

#endif

}  // namespace

}  // namespace fedhisyn::gemmk

#if defined(__x86_64__) || defined(__i386__)
#define FEDHISYN_PLANE_TARGET __attribute__((target("avx2")))
#define FEDHISYN_PLANE_LANES 8
#include "tensor/gemm_plane.inc"
#endif

namespace fedhisyn::gemmk {

const GemmKernel& gemm_variant_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const GemmKernel kernel{"avx2", avx2_supported, 8, 8, kloop_8x8, kVecPlane};
#else
  static const GemmKernel kernel{"avx2", avx2_supported, 8, 8, nullptr, {}};
#endif
  return kernel;
}

}  // namespace fedhisyn::gemmk
