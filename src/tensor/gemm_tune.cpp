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
using gemmk::GemmOp;
using gemmk::GemmVariant;

/// The four variants in auto-dispatch preference order: widest vectors first,
/// generic as the unconditional fallback.
std::array<const GemmVariant*, 4> all_variants() {
  return {&gemmk::gemm_variant_avx512(), &gemmk::gemm_variant_avx2(),
          &gemmk::gemm_variant_neon(), &gemmk::gemm_variant_generic()};
}

bool variant_usable(const GemmVariant& variant) {
  return variant.supported() && !variant.kernels.empty();
}

const GemmVariant* find_variant(const std::string& name) {
  for (const GemmVariant* variant : all_variants()) {
    if (name == variant->name) return variant;
  }
  return nullptr;
}

const GemmKernel* find_kernel(const GemmVariant& variant,
                              const std::string& label) {
  for (const GemmKernel& kernel : variant.kernels) {
    if (label == kernel.label) return &kernel;
  }
  return nullptr;
}

constexpr const char* kOpNames[3] = {"nn", "nt", "tn"};

/// The process-wide resolved selection: info for diagnostics plus the one
/// kernel every call executes (an entry of a variant's static catalog).
struct Runtime {
  GemmRuntimeInfo info;
  const GemmKernel* kernel = nullptr;
};

/// Resolve a kernel spec into a Runtime: the forced variant (and tile, when
/// pinned), else the best supported ISA with its preferred tile.  Throws
/// CheckError on an unknown or unsupported variant or an unknown kernel
/// label; callers leave the previous selection in place.
Runtime build_runtime(const std::string& spec) {
  Runtime rt;
  const GemmVariant* variant = nullptr;
  if (spec.empty() || spec == "auto") {
    for (const GemmVariant* candidate : all_variants()) {
      if (variant_usable(*candidate)) {
        variant = candidate;
        break;
      }
    }
    FEDHISYN_CHECK(variant != nullptr);  // generic is always usable
  } else {
    const auto colon = spec.find(':');
    const std::string name = spec.substr(0, colon);
    variant = find_variant(name);
    FEDHISYN_CHECK_MSG(variant != nullptr,
                       "GEMM kernel '" << spec << "' names unknown variant '"
                           << name << "' (generic|avx2|avx512|neon|auto)");
    FEDHISYN_CHECK_MSG(variant_usable(*variant),
                       "GEMM kernel '" << spec << "' forces variant '"
                           << name << "' but this CPU does not support it");
    if (colon != std::string::npos) {
      const std::string label = spec.substr(colon + 1);
      rt.kernel = find_kernel(*variant, label);
      FEDHISYN_CHECK_MSG(rt.kernel != nullptr,
                         "GEMM kernel '" << spec << "' forces unknown kernel '"
                             << label << "' of variant '" << name << "'");
      rt.info.forced_kernel = label;
    }
  }
  rt.info.variant = variant->name;
  if (rt.kernel == nullptr) rt.kernel = &variant->kernels[0];
  return rt;
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

std::string gemm_shape_class(GemmOp op, std::int64_t n) {
  return std::string(kOpNames[static_cast<int>(op)]) +
         (n > kGemmWideN ? "/wide" : "/narrow");
}

const GemmRuntimeInfo& gemm_runtime_info() { return runtime_slot().info; }

const GemmKernel& gemm_runtime_config() { return *runtime_slot().kernel; }

void gemm_runtime_select(const std::string& spec) {
  Runtime fresh = build_runtime(spec);  // may throw: slot stays untouched
  runtime_slot(&fresh) = std::move(fresh);
}

std::vector<std::string> gemm_supported_variants() {
  std::vector<std::string> names;
  for (const GemmVariant* variant : all_variants()) {
    if (variant_usable(*variant)) names.emplace_back(variant->name);
  }
  return names;
}

std::vector<GemmKernelId> gemm_kernel_catalog() {
  std::vector<GemmKernelId> catalog;
  for (const GemmVariant* variant : all_variants()) {
    if (!variant_usable(*variant)) continue;
    for (const GemmKernel& kernel : variant->kernels) {
      catalog.push_back({variant->name, kernel.label});
    }
  }
  return catalog;
}

std::string gemm_info_string() {
  const Runtime& rt = runtime_slot();
  std::ostringstream os;
  os << "gemm dispatch:\n";
  os << "  variant:        " << rt.info.variant << "\n";
  os << "  forced kernel:  "
     << (rt.info.forced_kernel.empty() ? "(none)" : rt.info.forced_kernel)
     << "\n";
  os << "  supported variants:";
  for (const std::string& name : gemm_supported_variants()) os << " " << name;
  os << "\n  kernels:\n";
  for (const GemmVariant* variant : all_variants()) {
    if (!variant_usable(*variant)) continue;
    os << "    " << variant->name << ":";
    for (const GemmKernel& kernel : variant->kernels) os << " " << kernel.label;
    os << "\n";
  }
  const GemmKernel& kernel = *rt.kernel;
  os << "  resolved config: " << kernel.mr << "x" << kernel.nr
     << " nc=" << gemmk::panel_width(kernel)
     << " rows=" << gemmk::task_rows(kernel) << "\n";
  return os.str();
}

}  // namespace fedhisyn
