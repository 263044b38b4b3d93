// Runtime kernel selection for the blocked GEMM family and the vector plane.
//
// A variant is the whole kernel plane: its GEMM micro-kernel and its
// VecPlane (gemm_kernel.hpp), so selecting one selects both.
// The micro-kernel variants (gemm_kernel.hpp) all produce identical bits, so
// which one runs is a pure performance decision.  This layer holds it as
// process-wide state, resolved from a spec to one variant: a forced one
// ("generic" | "avx2" | "avx512"), or "auto" for the best ISA the CPU
// supports (avx512 > avx2 > generic, probed via __builtin_cpu_supports).
// Each variant has exactly one register tile.  The spec comes from
// gemm_runtime_select, else FEDHISYN_GEMM_KERNEL at first use.  The driver
// derives the tile-grid sizes from that tile (gemmk::panel_width,
// gemmk::task_rows), so every call in the process runs one schedule.
//
// None of this can change result bytes — only scheduling.  The equivalence
// suite in tests/tensor_test.cpp forces every supported variant and demands
// exact float equality.
//
// Shape classes.  Trace spans name each call by operand layout and output
// width: {nn, nt, tn} x {narrow (n <= 256), wide}.  The classes are labels
// only: they select no kernel, tile or operand path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/gemm_kernel.hpp"

namespace fedhisyn {

/// Outputs with n <= kGemmWideN are "narrow", the rest "wide".
inline constexpr std::int64_t kGemmWideN = 256;

/// Shape-class span name, e.g. "nn/narrow" or "tn/wide".
std::string gemm_shape_class(gemmk::GemmOp op, std::int64_t n);

/// What the runtime selection resolved to (for startup logging and the
/// --gemm-info diagnostic).
struct GemmRuntimeInfo {
  std::string variant;  // selected variant name, also the spec selecting it
};
const GemmRuntimeInfo& gemm_runtime_info();

/// The kernel the public gemm entry points execute; its `plane` is the
/// vector plane every elementwise caller runs.
const gemmk::GemmKernel& gemm_runtime_config();

/// Replace the selection with the one `spec` names (grid drivers at
/// startup; tests and benches flipping kernels).  Not thread-safe against
/// concurrent gemm calls.  Throws CheckError, keeping the previous
/// selection, on an unknown or unsupported variant.
void gemm_runtime_select(const std::string& spec);

/// Names of the variants this CPU can run, auto-preference order first —
/// what the equivalence tests iterate.
std::vector<std::string> gemm_supported_variants();

/// Multi-line human-readable dispatch report (the --gemm-info flag):
/// selected variant, supported variants with their tiles, and the one
/// resolved tile and tile-grid sizes the driver runs.
std::string gemm_info_string();

}  // namespace fedhisyn
