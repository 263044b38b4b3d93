// Runtime kernel selection for the blocked GEMM family (see gemm_tune.hpp
// for the grammar and gemm_kernel.hpp for why none of this can change
// result bytes).
#include "tensor/gemm_tune.hpp"

#include <array>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"

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

void log_selection_once(const GemmRuntimeInfo& info) {
  static bool logged = false;  // once per process, not per reinit
  if (logged) return;
  logged = true;
  if (quiet_from_env()) return;
  std::string line = "fedhisyn: gemm variant=" + info.variant;
  if (!info.forced_kernel.empty()) line += " kernel=" + info.forced_kernel;
  std::fprintf(stderr, "%s\n", line.c_str());
}

/// Resolve FEDHISYN_GEMM_KERNEL into a Runtime: the forced variant (and
/// tile, when pinned), else the best supported ISA with its preferred tile.
/// Throws CheckError on an unknown or unsupported variant or an unknown
/// kernel label; callers leave the previous selection in place.
Runtime build_runtime() {
  Runtime rt;
  const std::string spec = gemm_kernel_from_env();
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
                       "FEDHISYN_GEMM_KERNEL names unknown variant '"
                           << name << "' (generic|avx2|avx512|neon|auto)");
    FEDHISYN_CHECK_MSG(variant_usable(*variant),
                       "FEDHISYN_GEMM_KERNEL forces variant '"
                           << name << "' but this CPU does not support it");
    if (colon != std::string::npos) {
      const std::string label = spec.substr(colon + 1);
      rt.kernel = find_kernel(*variant, label);
      FEDHISYN_CHECK_MSG(rt.kernel != nullptr,
                         "FEDHISYN_GEMM_KERNEL forces unknown kernel '"
                             << label << "' of variant '" << name << "'");
      rt.info.forced_kernel = label;
    }
  }
  rt.info.variant = variant->name;
  if (rt.kernel == nullptr) rt.kernel = &variant->kernels[0];
  return rt;
}

Runtime& runtime_slot() {
  static Runtime runtime = [] {
    Runtime rt = build_runtime();
    log_selection_once(rt.info);
    return rt;
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

void gemm_runtime_reinit() {
  Runtime fresh = build_runtime();  // may throw: slot stays untouched
  log_selection_once(fresh.info);
  runtime_slot() = std::move(fresh);
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
