// Runtime kernel selection, the tuning-cache codec and the one-shot
// autotuner for the blocked GEMM family (see gemm_tune.hpp for the layering
// and gemm_kernel.hpp for why none of this can change result bytes).
#include "tensor/gemm_tune.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace fedhisyn {

namespace {

using gemmk::GemmKernel;
using gemmk::GemmOp;
using gemmk::GemmVariant;
using gemmk::detail::ResolvedGemm;

constexpr const char* kTuneSchema = "fedhisyn-gemm-tune/1";

// The autotuner reads wall clock to *time* candidates; the timings pick a
// schedule, never feed result bytes (every candidate is bit-identical).  All
// clock access in this TU funnels through this one alias.
using tune_clock = std::chrono::steady_clock;  // determinism: gemm-autotune-timer

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

int op_index(GemmOp op) { return static_cast<int>(op); }
int width_index(std::int64_t n) { return n > kGemmWideN ? 1 : 0; }
const char* width_name(int wi) { return wi == 0 ? "narrow" : "wide"; }

std::string class_name(int oi, int wi) {
  return std::string(kOpNames[oi]) + "/" + width_name(wi);
}

/// "nn/wide" -> (0, 1); false when the key names no known class.
bool parse_class(const std::string& key, int& oi, int& wi) {
  for (oi = 0; oi < 3; ++oi) {
    for (wi = 0; wi < 2; ++wi) {
      if (key == class_name(oi, wi)) return true;
    }
  }
  return false;
}

std::int64_t round_up(std::int64_t value, std::int64_t multiple) {
  return ((value + multiple - 1) / multiple) * multiple;
}

/// The process-wide resolved selection: info for diagnostics plus one
/// executable configuration per (op, output-width) class.
struct Runtime {
  GemmRuntimeInfo info;
  ResolvedGemm cfg[3][2];
};

void log_selection_once(const GemmRuntimeInfo& info) {
  static bool logged = false;  // once per process, not per reinit
  if (logged) return;
  logged = true;
  if (quiet_from_env()) return;
  std::string line = "fedhisyn: gemm variant=" + info.variant;
  if (!info.forced_kernel.empty()) line += " kernel=" + info.forced_kernel;
  line += " tune-cache=";
  if (info.cache_path.empty()) {
    line += "none";
  } else {
    line += info.cache_path;
    if (!info.cache_loaded) line += " (ignored: variant mismatch)";
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

/// Resolve the environment into a Runtime.  Throws CheckError on a forced
/// but unsupported variant, an unknown kernel label, or an unreadable or
/// malformed tuning cache; callers leave the previous selection in place.
Runtime build_runtime() {
  Runtime rt;

  // 1. Variant: forced by FEDHISYN_GEMM_KERNEL, else best supported ISA.
  const std::string spec = gemm_kernel_from_env();
  const GemmVariant* variant = nullptr;
  const GemmKernel* forced = nullptr;
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
      forced = find_kernel(*variant, label);
      FEDHISYN_CHECK_MSG(forced != nullptr,
                         "FEDHISYN_GEMM_KERNEL forces unknown kernel '"
                             << label << "' of variant '" << name << "'");
      rt.info.forced_kernel = label;
    }
  }
  rt.info.variant = variant->name;

  // 2. Per-class defaults: the variant's preferred shape (or the forced
  // label), panel width 512, two register tiles of rows per task.
  const GemmKernel* chosen[3][2];
  std::int64_t nc[3][2];
  std::int64_t rows[3][2];
  const GemmKernel* base = forced != nullptr ? forced : &variant->kernels[0];
  for (int oi = 0; oi < 3; ++oi) {
    for (int wi = 0; wi < 2; ++wi) {
      chosen[oi][wi] = base;
      nc[oi][wi] = 512;
      rows[oi][wi] = 2 * base->mr;
    }
  }

  // 3. Tuning cache: per-class winners recorded by the autotuner.  A cache
  // for a different variant is ignored with a warning — the documented
  // graceful path for a cache copied across hosts — while a malformed one
  // stops the run (gemm_tuning_from_json throws).
  const std::string cache_path = gemm_tune_cache_from_env();
  if (!cache_path.empty()) {
    rt.info.cache_path = cache_path;
    std::ifstream in(cache_path);
    FEDHISYN_CHECK_MSG(in.good(), "cannot read FEDHISYN_GEMM_TUNE_CACHE file '"
                                      << cache_path << "'");
    std::ostringstream text;
    text << in.rdbuf();
    const GemmTuning tuning = gemm_tuning_from_json(text.str());
    if (tuning.variant != rt.info.variant) {
      if (!quiet_from_env()) {
        std::fprintf(stderr,
                     "fedhisyn: gemm tune cache %s was recorded for variant %s "
                     "but %s is selected — ignoring it\n",
                     cache_path.c_str(), tuning.variant.c_str(),
                     rt.info.variant.c_str());
      }
    } else {
      for (const GemmTuneEntry& entry : tuning.entries) {
        int oi = 0;
        int wi = 0;
        FEDHISYN_CHECK_MSG(parse_class(entry.shape_class, oi, wi),
                           "gemm tune cache entry names unknown shape class '"
                               << entry.shape_class << "'");
        const GemmKernel* kernel = find_kernel(*variant, entry.kernel);
        FEDHISYN_CHECK_MSG(kernel != nullptr,
                           "gemm tune cache entry names unknown kernel '"
                               << entry.kernel << "' of variant '"
                               << rt.info.variant << "'");
        chosen[oi][wi] = forced != nullptr ? forced : kernel;
        nc[oi][wi] = entry.nc;
        rows[oi][wi] = entry.rows;
      }
      rt.info.cache_loaded = true;
    }
  }

  for (int oi = 0; oi < 3; ++oi) {
    for (int wi = 0; wi < 2; ++wi) {
      const GemmKernel* kernel = chosen[oi][wi];
      ResolvedGemm& cfg = rt.cfg[oi][wi];
      cfg.mr = kernel->mr;
      cfg.nr = kernel->nr;
      cfg.nc = round_up(nc[oi][wi], kernel->nr);
      cfg.rows = round_up(rows[oi][wi], kernel->mr);
      cfg.kloop = kernel->kloop;
    }
  }
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

// ---- autotuner helpers ------------------------------------------------------

struct TuneOperands {
  std::vector<float> a, b, c;
};

/// Same deterministic operand recipe as bench/gemm_sweep.cpp: timings vary,
/// the data never does.
TuneOperands make_operands(const GemmTuneShape& s) {
  TuneOperands ops;
  const std::int64_t a_size = s.m * s.k;  // kTN stores (k x m): same count
  const std::int64_t b_size = s.k * s.n;  // kNT stores (n x k): same count
  ops.a.resize(static_cast<std::size_t>(a_size));
  ops.b.resize(static_cast<std::size_t>(b_size));
  ops.c.resize(static_cast<std::size_t>(s.m * s.n));
  Rng rng(static_cast<std::uint64_t>(1000 + a_size + b_size));
  for (auto& x : ops.a) x = static_cast<float>(rng.normal());
  for (auto& x : ops.b) x = static_cast<float>(rng.normal());
  return ops;
}

/// Best-of timing (same shape as the bench harness): run until min_time_ms
/// of wall clock accumulates, at least 3 runs, return the fastest in ms.
template <typename Fn>
double time_best_ms(double min_time_ms, const Fn& fn) {
  fn();  // warm-up: pages, pack-buffer growth, branch predictors
  double best = 1e30;
  double total = 0.0;
  int runs = 0;
  while (total < min_time_ms || runs < 3) {
    const auto start = tune_clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(tune_clock::now() - start)
            .count();
    if (ms < best) best = ms;
    total += ms;
    ++runs;
  }
  return best;
}

}  // namespace

std::string gemm_shape_class(GemmOp op, std::int64_t n) {
  return class_name(op_index(op), width_index(n));
}

std::vector<std::string> gemm_shape_classes() {
  std::vector<std::string> classes;
  for (int oi = 0; oi < 3; ++oi) {
    for (int wi = 0; wi < 2; ++wi) classes.push_back(class_name(oi, wi));
  }
  return classes;
}

std::string gemm_tuning_to_json(const GemmTuning& tuning) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kTuneSchema << "\",\n";
  os << "  \"variant\": \"" << json::escape(tuning.variant) << "\",\n";
  os << "  \"entries\": [";
  bool first = true;
  for (const GemmTuneEntry& entry : tuning.entries) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"class\": \"" << json::escape(entry.shape_class)
       << "\", \"kernel\": \"" << json::escape(entry.kernel)
       << "\", \"nc\": " << entry.nc << ", \"rows\": " << entry.rows << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

GemmTuning gemm_tuning_from_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  FEDHISYN_CHECK_MSG(doc.kind == json::Value::Kind::kObject,
                     "gemm tune cache: document is not a JSON object");
  const json::Value* schema = doc.find("schema");
  FEDHISYN_CHECK_MSG(schema != nullptr && schema->as_string() == kTuneSchema,
                     "gemm tune cache: missing or unexpected schema (want '"
                         << kTuneSchema << "')");
  const json::Value* variant = doc.find("variant");
  FEDHISYN_CHECK_MSG(variant != nullptr, "gemm tune cache: missing 'variant'");
  const json::Value* entries = doc.find("entries");
  FEDHISYN_CHECK_MSG(entries != nullptr &&
                         entries->kind == json::Value::Kind::kArray,
                     "gemm tune cache: missing 'entries' array");
  GemmTuning tuning;
  tuning.variant = variant->as_string();
  for (const json::Value& item : entries->items) {
    const json::Value* cls = item.find("class");
    const json::Value* kernel = item.find("kernel");
    const json::Value* nc = item.find("nc");
    const json::Value* rows = item.find("rows");
    FEDHISYN_CHECK_MSG(
        cls != nullptr && kernel != nullptr && nc != nullptr && rows != nullptr,
        "gemm tune cache: entry missing class/kernel/nc/rows");
    GemmTuneEntry entry;
    entry.shape_class = cls->as_string();
    entry.kernel = kernel->as_string();
    entry.nc = nc->as_long();
    entry.rows = rows->as_long();
    int oi = 0;
    int wi = 0;
    FEDHISYN_CHECK_MSG(parse_class(entry.shape_class, oi, wi),
                       "gemm tune cache: unknown shape class '"
                           << entry.shape_class << "'");
    FEDHISYN_CHECK_MSG(entry.nc > 0 && entry.rows > 0,
                       "gemm tune cache: nc/rows must be positive in class '"
                           << entry.shape_class << "'");
    tuning.entries.push_back(std::move(entry));
  }
  return tuning;
}

void save_gemm_tuning(const GemmTuning& tuning, const std::string& path) {
  std::ofstream out(path);
  FEDHISYN_CHECK_MSG(out.good(), "cannot write gemm tuning cache '" << path << "'");
  out << gemm_tuning_to_json(tuning);
  out.flush();
  FEDHISYN_CHECK_MSG(out.good(), "failed writing gemm tuning cache '" << path << "'");
}

const GemmRuntimeInfo& gemm_runtime_info() { return runtime_slot().info; }

const ResolvedGemm& gemm_runtime_config(GemmOp op, std::int64_t n) {
  return runtime_slot().cfg[op_index(op)][width_index(n)];
}

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

GemmTuning autotune_gemm(std::span<const GemmTuneShape> shapes,
                         const std::string& variant_name, double min_time_ms) {
  const GemmVariant* variant = find_variant(variant_name);
  FEDHISYN_CHECK_MSG(variant != nullptr && variant_usable(*variant),
                     "autotune_gemm: variant '" << variant_name
                                                << "' is not supported here");

  std::vector<GemmTuneShape> buckets[3][2];
  for (const GemmTuneShape& s : shapes) {
    buckets[op_index(s.op)][width_index(s.n)].push_back(s);
  }

  // The tile-grid candidate grid: panel widths around cache-sized panels,
  // task heights of 1/2/4 register tiles.  Coarse on purpose — the knobs are
  // scheduling only, and a 3x3 grid per kernel keeps a full sweep under a
  // minute at bench-grade min_time_ms.
  constexpr std::int64_t kNcCandidates[] = {256, 512, 1024};
  constexpr std::int64_t kRowFactors[] = {1, 2, 4};

  // Time single-threaded on a locally-bound pool: st ratios transfer across
  // machines and the sweep never perturbs (or reads) the process-wide pool.
  ParallelExecutor pool(1);
  ParallelExecutor::Bind bind(pool);

  GemmTuning tuning;
  tuning.variant = variant->name;
  for (int oi = 0; oi < 3; ++oi) {
    for (int wi = 0; wi < 2; ++wi) {
      const auto& bucket = buckets[oi][wi];
      if (bucket.empty()) continue;
      std::vector<TuneOperands> operands;
      operands.reserve(bucket.size());
      for (const GemmTuneShape& s : bucket) operands.push_back(make_operands(s));

      const GemmKernel* best_kernel = nullptr;
      std::int64_t best_nc = 0;
      std::int64_t best_rows = 0;
      double best_ms = 1e300;
      for (const GemmKernel& kernel : variant->kernels) {
        for (const std::int64_t nc : kNcCandidates) {
          for (const std::int64_t factor : kRowFactors) {
            ResolvedGemm cfg;
            cfg.mr = kernel.mr;
            cfg.nr = kernel.nr;
            cfg.nc = round_up(nc, kernel.nr);
            cfg.rows = factor * kernel.mr;
            cfg.kloop = kernel.kloop;
            double total = 0.0;
            for (std::size_t si = 0; si < bucket.size(); ++si) {
              const GemmTuneShape& s = bucket[si];
              TuneOperands& ops = operands[si];
              total += time_best_ms(min_time_ms, [&] {
                gemmk::detail::gemm_run(s.op, ops.a.data(), ops.b.data(),
                                        ops.c.data(), s.m, s.k, s.n, 0.0f, cfg);
              });
            }
            // Strict < : ties keep the earlier candidate, so equal timings
            // reproduce the same cache file.
            if (total < best_ms) {
              best_ms = total;
              best_kernel = &kernel;
              best_nc = cfg.nc;
              best_rows = cfg.rows;
            }
          }
        }
      }
      tuning.entries.push_back(
          {class_name(oi, wi), best_kernel->label, best_nc, best_rows});
    }
  }
  return tuning;
}

std::string gemm_info_string() {
  const Runtime& rt = runtime_slot();
  std::ostringstream os;
  os << "gemm dispatch:\n";
  os << "  variant:        " << rt.info.variant << "\n";
  os << "  forced kernel:  "
     << (rt.info.forced_kernel.empty() ? "(none)" : rt.info.forced_kernel)
     << "\n";
  os << "  tune cache:     ";
  if (rt.info.cache_path.empty()) {
    os << "(none)";
  } else {
    os << rt.info.cache_path
       << (rt.info.cache_loaded ? " (loaded)" : " (ignored: variant mismatch)");
  }
  os << "\n  supported variants:";
  for (const std::string& name : gemm_supported_variants()) os << " " << name;
  os << "\n  kernels:\n";
  for (const GemmVariant* variant : all_variants()) {
    if (!variant_usable(*variant)) continue;
    os << "    " << variant->name << ":";
    for (const GemmKernel& kernel : variant->kernels) os << " " << kernel.label;
    os << "\n";
  }
  os << "  resolved configs (class: kernel nc rows):\n";
  for (int oi = 0; oi < 3; ++oi) {
    for (int wi = 0; wi < 2; ++wi) {
      const ResolvedGemm& cfg = rt.cfg[oi][wi];
      os << "    " << class_name(oi, wi) << ": " << cfg.mr << "x" << cfg.nr
         << " nc=" << cfg.nc << " rows=" << cfg.rows << "\n";
    }
  }
  return os.str();
}

}  // namespace fedhisyn
