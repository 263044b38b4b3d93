// Internal micro-kernel ABI of the blocked GEMM family (tensor/gemm.cpp)
// and its arch-specialised implementations (gemm_kernels_*.cpp).
//
// One blocked driver serves every ISA: it hands a micro-kernel MR row
// pointers into op(A) (read in place, never packed), op(B) either in place
// or as a packed NR-wide sub-panel, and a C tile to initialise and store —
// C itself for full tiles, a 64-byte-aligned MR x NR staging tile for edge
// tiles and for betas the kernel cannot apply.  Only the k-loop is
// ISA-specific, so a variant is one function pointer plus its register-tile
// shape, one tile per ISA: generic 4x8, avx2 8x8 and avx512 8x16.
//
// The k-loop contract is the repo's byte-identity contract in miniature:
//
//   c[ii*ldc + jj] = (load_c ? c[ii*ldc + jj] : 0.0f)
//                    + sum over p ascending of a[ii][p*a_step] * b[p*ldb + jj]
//
// with exactly one IEEE-rounded multiply and one IEEE-rounded add per term
// (NO fused multiply-add: contraction skips the product rounding and would
// make an FMA variant's bytes diverge from the generic kernel's — the
// kernel TUs compile with -ffp-contract=off, see CMakeLists.txt, and
// tests/tensor_test.cpp demands exact float equality across every variant).
// Under that contract the register-tile shape, the ISA, the tile-grid
// sizes and whether an operand is packed are pure scheduling knobs: every
// variant produces identical bits.
//
// Every kernel keeps its C tile in registers for the whole
// call: the loops that initialise and store the accumulators carry
// `#pragma GCC unroll <MR>`.  Without it GCC keeps the accumulator array in
// memory, clears it with `rep stos` and moves every accumulator through the
// stack on the way in and out — about 20 ns per tile at any k, the same
// bits.  tools/check_kernel_codegen.py fails the build's kernel objects on
// either pattern.
//
// Runtime selection (CPUID dispatch, FEDHISYN_GEMM_KERNEL) lives one layer
// up in tensor/gemm_tune.hpp.
#pragma once

#include <cstdint>

namespace fedhisyn::gemmk {

/// The three public entry points' operand layouts (gemm / gemm_nt / gemm_tn).
/// Only the operand addressing and the C-tile beta semantics differ per op;
/// the k-loop is op-agnostic.
enum class GemmOp { kNN, kNT, kTN };

/// Largest register tile any variant declares; the driver's staging tile
/// and row-pointer array are sized to this (stack arrays).  Each kernel TU
/// static_asserts that its tile fits.
inline constexpr std::int64_t kMaxMR = 8;
inline constexpr std::int64_t kMaxNR = 16;

/// Micro-kernel k-loop: compute one full mr x nr register tile over the
/// whole k extent, per the contract above.
///   * `a` holds mr row pointers into op(A): a[ii][p*a_step] is row ii's
///     k-th term.  a_step is 1 for NN/NT (an A row is contiguous in k) and
///     m for TN (A is stored k x m).  The driver points rows past the
///     strip's end at its last valid row, so every read is in bounds; their
///     results land only in staging rows that are never stored.
///   * `b` is op(B) at the tile's first column with row stride `ldb`: B in
///     place (ldb = n) or a zero-padded packed sub-panel (ldb = nr).  All nr
///     columns are read.
///   * `c` is the tile with row stride `ldc`: initialised from itself when
///     `load_c`, from +0.0f otherwise, and all mr x nr elements are stored.
using KloopFn = void (*)(const float* const* a, std::int64_t a_step,
                         const float* b, std::int64_t ldb, std::int64_t k,
                         float* c, std::int64_t ldc, bool load_c);

/// One ISA variant: a runtime support predicate and its one register tile.
struct GemmKernel {
  const char* name;     // "generic", "avx2", "avx512"
  bool (*supported)();  // runtime CPUID on x86; generic is always true
  std::int64_t mr;
  std::int64_t nr;
  KloopFn kloop;  // nullptr where the ISA cannot be compiled
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
