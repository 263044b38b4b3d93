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
// avx2 8x8 and avx512 8x16.
//
// The k-loop contract is the repo's byte-identity contract in miniature.
// For every valid element, with dot = +0.0f + sum over p ascending of
// a[ii][p*a_step] * b[p*ldb + jj]:
//
//   kOverwrite   c[ii*ldc + jj] = dot
//   kInitFromC   c[ii*ldc + jj] = c[ii*ldc + jj] + terms   (the sum starts
//                                 from C instead of +0; NN/TN accumulate)
//   kAddAtStore  c[ii*ldc + jj] = c[ii*ldc + jj] + dot     (NT accumulate)
//
// with exactly one IEEE-rounded multiply and one IEEE-rounded add per term
// (NO fused multiply-add: contraction skips the product rounding and would
// make an FMA variant's bytes diverge from the generic kernel's — the
// kernel TUs compile with -ffp-contract=off, see CMakeLists.txt, and
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

namespace fedhisyn::gemmk {

/// The three public entry points' operand layouts (gemm / gemm_nt / gemm_tn).
/// Only the operand addressing and the accumulate semantics differ per op;
/// the k-loop is op-agnostic.
enum class GemmOp { kNN, kNT, kTN };

/// How a tile's accumulators start and land in C (the contract above).
/// The driver picks kOverwrite for every op without `accumulate`, and with
/// it kInitFromC for NN/TN and kAddAtStore for NT.
enum class StoreMode { kOverwrite, kInitFromC, kAddAtStore };

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
