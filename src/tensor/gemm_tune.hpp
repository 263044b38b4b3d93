// Runtime kernel selection and self-tuning for the blocked GEMM family.
//
// The micro-kernel variants (gemm_kernel.hpp) all produce identical bits, so
// which one runs — and with which tile-grid sizes — is a pure performance
// decision.  This layer makes that decision once per process:
//
//   1. FEDHISYN_GEMM_KERNEL forces a variant ("generic" | "avx2" | "avx512" |
//      "neon", optionally "variant:MRxNR" to pin the register tile); "auto"
//      or unset picks the best ISA the CPU supports (avx512 > avx2 > neon >
//      generic, probed via __builtin_cpu_supports on x86).
//   2. FEDHISYN_GEMM_TUNE_CACHE names a JSON file written by the autotuner;
//      its per-(op, width) entries override the variant's default kernel
//      shape and the NC / task-row sizes.  A cache recorded for a different
//      variant than the one selected is ignored with a warning (caches are
//      per-ISA; copying one across hosts must degrade gracefully).
//
// None of this can change result bytes — only scheduling.  The equivalence
// suite in tests/tensor_test.cpp forces every catalog entry and demands
// exact float equality.
//
// Shape classes.  The autotuner buckets shapes by operand layout and output
// width: {nn, nt, tn} x {narrow (n <= 256), wide}.  Six buckets is coarse,
// but it matches how the tile-grid knobs actually behave (wide-n conv shapes
// want wide panels and short strips; narrow MLP shapes the reverse) without
// overfitting to exact bench dimensions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/gemm_kernel.hpp"

namespace fedhisyn {

/// Outputs with n <= kGemmWideN are "narrow", the rest "wide".
inline constexpr std::int64_t kGemmWideN = 256;

/// Bucket key, e.g. "nn/narrow" or "tn/wide".
std::string gemm_shape_class(gemmk::GemmOp op, std::int64_t n);

/// All six class keys, in a fixed order (nn, nt, tn x narrow, wide).
std::vector<std::string> gemm_shape_classes();

/// One tuned selection: for this shape class use this kernel label with
/// these tile-grid sizes.
struct GemmTuneEntry {
  std::string shape_class;  // "nn/narrow", ...
  std::string kernel;       // kernel label within the tuning's variant
  std::int64_t nc = 0;      // column-panel width
  std::int64_t rows = 0;    // rows per parallel task
};

/// A complete tuning: the variant it was measured for plus its per-class
/// winners.  Serialised as schema "fedhisyn-gemm-tune/1" (all-integer
/// payload, so the strict JSON codec round-trips it exactly).
struct GemmTuning {
  std::string variant;
  std::vector<GemmTuneEntry> entries;
};

/// Serialise / parse the tuning-cache JSON document.  Parsing is strict:
/// wrong schema, missing fields or non-positive sizes throw CheckError
/// (a corrupt cache should stop the run loudly, not silently detune it).
std::string gemm_tuning_to_json(const GemmTuning& tuning);
GemmTuning gemm_tuning_from_json(const std::string& text);

/// Write the tuning to `path` (throws CheckError on I/O failure).
void save_gemm_tuning(const GemmTuning& tuning, const std::string& path);

/// What the runtime selection resolved to (for startup logging and the
/// --gemm-info diagnostic).
struct GemmRuntimeInfo {
  std::string variant;        // selected variant name
  std::string forced_kernel;  // non-empty when FEDHISYN_GEMM_KERNEL pinned a label
  std::string cache_path;     // non-empty when a tuning cache was consulted
  bool cache_loaded = false;  // true when the cache's entries are in effect
};
const GemmRuntimeInfo& gemm_runtime_info();

/// The resolved configuration the public gemm entry points execute for one
/// (op, output-width) call.  Resolves the process-wide selection on first
/// use (logging one startup line unless FEDHISYN_QUIET).
const gemmk::detail::ResolvedGemm& gemm_runtime_config(gemmk::GemmOp op,
                                                       std::int64_t n);

/// Drop the resolved selection and re-read the environment on next use.
/// Test/bench hook only (documented in docs/ARCHITECTURE.md): lets the
/// equivalence suite and the bench sweep force kernels via setenv without
/// process restarts.  Not thread-safe against concurrent gemm calls.  Throws
/// CheckError (leaving the previous selection intact) when the environment
/// forces an unsupported variant or an unknown kernel label.
void gemm_runtime_reinit();

/// Names of the variants this CPU can run, auto-preference order first.
std::vector<std::string> gemm_supported_variants();

/// Every (variant, kernel-label) pair runnable on this CPU — what the
/// equivalence tests iterate.
struct GemmKernelId {
  std::string variant;
  std::string kernel;
};
std::vector<GemmKernelId> gemm_kernel_catalog();

/// One exemplar shape for the autotuner.
struct GemmTuneShape {
  gemmk::GemmOp op;
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
};

/// One-shot autotuner: bucket the exemplar shapes by class, time every
/// (kernel, NC, rows) candidate of `variant` single-threaded on each bucket
/// (best-of timing, >= min_time_ms per candidate), and return the winners.
/// Classes with no exemplar are omitted.  Throws CheckError when `variant`
/// is not supported here.  Runs with a locally-bound 1-thread pool and never
/// touches the process-wide selection.
GemmTuning autotune_gemm(std::span<const GemmTuneShape> shapes,
                         const std::string& variant, double min_time_ms);

/// Multi-line human-readable dispatch report (the --gemm-info flag):
/// selected variant, forced kernel, cache state, supported variants with
/// their kernel shapes, and the per-class resolved configurations.
std::string gemm_info_string();

}  // namespace fedhisyn
