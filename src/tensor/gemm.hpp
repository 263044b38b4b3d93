// Single-precision GEMM kernels used by the dense and convolution layers.
//
// C (MxN) = op(A) * op(B), or C += A * B^T with gemm_nt's `accumulate`.
// Row-major.  Every shape runs one blocked kernel (see gemm.cpp), serially
// on the calling thread: C is blocked into column panels and row strips,
// and an MRxNR register micro-kernel does the arithmetic.  Parallelism
// lives in the callers' loops over training jobs, never inside a GEMM
// (docs/ARCHITECTURE.md, "One level of parallelism").  A is read in place; B is read in place on NN/TN shapes with
// n < 128 and packed into per-thread aligned scratch otherwise.  Every tile,
// edge tiles included, is stored straight to C (no staging tile).
// The micro-kernel is multiversioned per ISA with one tile each (generic,
// AVX2, AVX-512; see gemm_kernel.hpp) and selected once per process by
// runtime CPUID dispatch, overridable via FEDHISYN_GEMM_KERNEL; the
// selection layer is tensor/gemm_tune.hpp.  The blocking sizes follow from the selected
// register tile, so a process runs one schedule for every shape.
//
// Determinism: i/j are blocked but k never is — every C element accumulates
// its k terms in ascending order with one rounded multiply and one rounded
// add per term (no FMA anywhere), so results are bit-identical across
// kernel variants, register tiles and packed vs in-place operands.
// Not a BLAS replacement — sized for the models the FL simulation trains —
// but verified against an order-exact reference (every kernel variant
// forced, exact float equality) in tests/tensor_test.cpp and swept in
// bench/gemm_sweep.cpp.
#pragma once

#include <cstdint>
#include <span>

namespace fedhisyn {

/// C = A(MxK) * B(KxN).  All matrices row-major, contiguous.
void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          std::int64_t m, std::int64_t k, std::int64_t n);

/// C = A(MxK) * B^T where B is (NxK) row-major; i.e. C[i,j] = dot(A[i,:], B[j,:]).
/// With `accumulate`, C[i,j] = C[i,j] + dot: the dot sums from +0 and is
/// added at the store.  This is the one accumulating GEMM.
void gemm_nt(std::span<const float> a, std::span<const float> b, std::span<float> c,
             std::int64_t m, std::int64_t k, std::int64_t n, bool accumulate = false);

/// C = A^T(MxK, stored KxM... ) — precisely: A is (KxM) row-major, B is (KxN)
/// row-major, C(MxN) = A^T * B.  Used for weight gradients.
void gemm_tn(std::span<const float> a, std::span<const float> b, std::span<float> c,
             std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace fedhisyn
