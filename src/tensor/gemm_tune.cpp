// Runtime kernel selection for the blocked GEMM family (see gemm_tune.hpp
// for the grammar and gemm_kernel.hpp for why none of this can change
// result bytes).
#include "tensor/gemm_tune.hpp"

#include <array>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace fedhisyn {

namespace {

using gemmk::GemmKernel;

/// The three variants in auto-dispatch preference order: widest vectors
/// first, generic as the unconditional fallback.
std::array<const GemmKernel*, 3> all_variants() {
  return {&gemmk::gemm_variant_avx512(), &gemmk::gemm_variant_avx2(),
          &gemmk::gemm_variant_generic()};
}

/// The process-wide resolved selection: info for diagnostics plus the one
/// kernel every call executes (a variant's static entry).
struct Runtime {
  GemmRuntimeInfo info;
  const GemmKernel* kernel = nullptr;
};

/// Resolve a kernel spec into a Runtime: the forced variant, else the best
/// supported ISA.  Throws CheckError on an unknown or unsupported variant;
/// callers leave the previous selection in place.
Runtime build_runtime(const std::string& spec) {
  const GemmKernel* kernel = nullptr;
  const bool automatic = spec.empty() || spec == "auto";
  for (const GemmKernel* candidate : all_variants()) {
    if (automatic ? candidate->supported() : spec == candidate->name) {
      kernel = candidate;
      break;
    }
  }
  FEDHISYN_CHECK_MSG(kernel != nullptr,  // generic is always supported
                     "GEMM kernel '" << spec
                         << "' names unknown variant (generic|avx2|avx512|auto)");
  FEDHISYN_CHECK_MSG(kernel->supported(),
                     "GEMM kernel '" << spec
                         << "' forces a variant this CPU does not support");
  return {{kernel->name}, kernel};
}

/// The process-wide selection.  Its first use initialises it: from `first`
/// when gemm_runtime_select got there first, else from FEDHISYN_GEMM_KERNEL
/// (the one read of it, for binaries that never select).
Runtime& runtime_slot(const Runtime* first = nullptr) {
  static Runtime runtime = [first] {
    if (first != nullptr) return *first;
    const char* spec = std::getenv("FEDHISYN_GEMM_KERNEL");
    return build_runtime(spec != nullptr ? spec : "auto");
  }();
  return runtime;
}

}  // namespace

const GemmRuntimeInfo& gemm_runtime_info() { return runtime_slot().info; }

const GemmKernel& gemm_runtime_config() { return *runtime_slot().kernel; }

void gemm_runtime_select(const std::string& spec) {
  Runtime fresh = build_runtime(spec);  // may throw: slot stays untouched
  runtime_slot(&fresh) = std::move(fresh);
}

std::vector<std::string> gemm_supported_variants() {
  std::vector<std::string> names;
  for (const GemmKernel* variant : all_variants()) {
    if (variant->supported()) names.emplace_back(variant->name);
  }
  return names;
}

std::string gemm_info_string() {
  const GemmKernel& kernel = gemm_runtime_config();
  std::ostringstream os;
  os << "gemm dispatch:\n";
  os << "  variant:        " << kernel.name << "\n";
  os << "  supported variants:\n";
  for (const GemmKernel* variant : all_variants()) {
    if (!variant->supported()) continue;
    os << "    " << variant->name << ": " << variant->mr << "x" << variant->nr << "\n";
  }
  os << "  resolved config: " << kernel.mr << "x" << kernel.nr
     << " nc=" << gemmk::panel_width(kernel)
     << " rows=" << gemmk::strip_rows(kernel) << "\n";
  return os.str();
}

}  // namespace fedhisyn
