// GEMM shape sweep: times the blocked kernels (tensor/gemm.hpp)
// against a serial per-row reference (the pre-blocking kernel) over the
// dense-MLP and CNN-im2col shapes that dominate Table 1 / fig6 / fig7
// runtime, and emits machine-readable BENCH_gemm.json.
//
// It needs no google-benchmark, so CI can always build it;
// tools/bench_gate.py consumes the JSON and fails the bench-regression job
// when a shape regresses against bench/baselines/.
//
// The gate metric is `speedup_st` = reference time / blocked time, both on
// the calling thread (a GEMM never reaches the pool): a same-machine ratio,
// so it transfers across runner hardware where raw GFLOP/s would not.
//
//   ./bench_gemm_sweep --out BENCH_gemm.json [--min-time-ms 200]
//                      [--shapes name,...] [--kernel VARIANT]
//                      [--list-kernels]
//
// Kernel modes: by default every shape is timed under the auto-selected
// kernel (the plain entry, gated against bench/baselines/BENCH_gemm.json)
// *and* once per supported ISA variant (entries named "<shape>@<variant>";
// the @generic rows join the main baseline, the @avx2 rows are gated by
// bench/baselines/BENCH_gemm_isa.json on hosts that have AVX2).  --kernel
// forces one variant for the plain entries instead and skips the per-variant
// sweep; an unknown or unsupported variant exits with status 3 so CI can
// skip gracefully.  --list-kernels prints the supported variant names and
// exits.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/hostinfo.hpp"
#include "common/rng.hpp"
#include "gemm_shapes.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_tune.hpp"

namespace {

using namespace fedhisyn;
using bench::GemmShape;
using Variant = bench::GemmVariant;

// Shape table: bench/gemm_shapes.hpp.
constexpr auto& kShapes = bench::kGemmSweepShapes;

// The pre-blocking per-row kernels, kept verbatim as the measurement
// reference (serial; the old `a == 0` skip never fires on the random
// operands so it is omitted).
void reference_gemm(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) ci[j] = 0.0f;
    const float* ai = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float aip = ai[p];
      const float* bp = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

void reference_gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
                       std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = acc;
    }
  }
}

void reference_gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
                       std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) ci[j] = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) {
      const float api = a[p * m + i];
      const float* bp = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += api * bp[j];
    }
  }
}

struct Operands {
  std::vector<float> a, b, c;
};

Operands make_operands(const GemmShape& s) {
  Operands ops;
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

/// Best-of timing: run `fn` repeatedly until `min_time_ms` of total wall
/// clock accumulates (at least 3 runs), return the fastest single run in ms.
template <typename Fn>
double time_best_ms(double min_time_ms, const Fn& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up: pages, pack-buffer growth, branch predictors
  double best = 1e30;
  double total = 0.0;
  int runs = 0;
  while (total < min_time_ms || runs < 3) {
    const auto start = clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - start).count();
    best = std::min(best, ms);
    total += ms;
    ++runs;
  }
  return best;
}

void run_blocked(const GemmShape& s, Operands& ops) {
  switch (s.variant) {
    case Variant::kNN:
      gemm(ops.a, ops.b, ops.c, s.m, s.k, s.n);
      break;
    case Variant::kNT:
      gemm_nt(ops.a, ops.b, ops.c, s.m, s.k, s.n);
      break;
    case Variant::kTN:
      gemm_tn(ops.a, ops.b, ops.c, s.m, s.k, s.n);
      break;
  }
}

void run_reference(const GemmShape& s, Operands& ops) {
  switch (s.variant) {
    case Variant::kNN:
      reference_gemm(ops.a.data(), ops.b.data(), ops.c.data(), s.m, s.k, s.n);
      break;
    case Variant::kNT:
      reference_gemm_nt(ops.a.data(), ops.b.data(), ops.c.data(), s.m, s.k, s.n);
      break;
    case Variant::kTN:
      reference_gemm_tn(ops.a.data(), ops.b.data(), ops.c.data(), s.m, s.k, s.n);
      break;
  }
}

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kNN: return "nn";
    case Variant::kNT: return "nt";
    case Variant::kTN: return "tn";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_gemm.json";
  double min_time_ms = 200.0;
  std::string shapes_filter;
  std::string kernel_spec;
  bool list_kernels = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--min-time-ms") {
      min_time_ms = std::atof(next());
    } else if (arg == "--shapes") {
      shapes_filter = next();
    } else if (arg == "--kernel") {
      kernel_spec = next();
    } else if (arg == "--list-kernels") {
      list_kernels = true;
    } else {
      std::cerr << "usage: bench_gemm_sweep [--out FILE] [--min-time-ms MS] "
                   "[--shapes name,...] "
                   "[--kernel VARIANT] [--list-kernels]\n";
      return arg == "--help" ? 0 : 2;
    }
  }

  if (list_kernels) {
    for (const std::string& name : gemm_supported_variants()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  // --shapes: restrict the sweep, keeping the table's order.
  std::vector<const GemmShape*> selected;
  if (shapes_filter.empty()) {
    for (const GemmShape& s : kShapes) selected.push_back(&s);
  } else {
    std::string item;
    std::vector<std::string> names;
    for (const char c : shapes_filter + ",") {
      if (c == ',') {
        if (!item.empty()) names.push_back(item);
        item.clear();
      } else {
        item.push_back(c);
      }
    }
    for (const GemmShape& s : kShapes) {
      if (std::find(names.begin(), names.end(), s.name) != names.end()) {
        selected.push_back(&s);
      }
    }
    if (selected.size() != names.size()) {
      std::cerr << "--shapes: unknown shape name in '" << shapes_filter
                << "' (known:";
      for (const GemmShape& s : kShapes) std::cerr << " " << s.name;
      std::cerr << ")\n";
      return 2;
    }
  }

  // --kernel: force one variant for the whole sweep.  Unknown and
  // unsupported variants exit 3 (distinct from usage errors) so CI matrix
  // steps can skip.
  if (!kernel_spec.empty()) {
    try {
      gemm_runtime_select(kernel_spec);
    } catch (const CheckError& err) {
      std::cerr << "bench_gemm_sweep: " << err.what() << "\n";
      return 3;
    }
  }

  // Timing modes per shape: the current selection (plain entry, gated), and
  // — unless --kernel pinned one — every supported variant as "@variant"
  // entries (the ref timing is shared).
  struct Mode {
    std::string suffix;       // "" or "@avx2"
    std::string spec;         // "" = the sweep's default selection
  };
  std::vector<Mode> modes;
  modes.push_back({"", ""});
  if (kernel_spec.empty()) {
    for (const std::string& name : gemm_supported_variants()) {
      modes.push_back({"@" + name, name});
    }
  }
  // The plain entries run the selection the sweep started with: --kernel,
  // else FEDHISYN_GEMM_KERNEL, else auto.
  const std::string default_spec = gemm_runtime_info().variant;

  std::string json;
  json += "{\n  \"schema\": \"fedhisyn-gemm-sweep/1\",\n";
  json += "  " + host_json_field(gemm_runtime_info().variant) + ",\n";
  json += "  \"min_time_ms\": " + std::to_string(min_time_ms) + ",\n";
  json += "  \"shapes\": [\n";

  bool first = true;
  for (const GemmShape* shape : selected) {
    const GemmShape& s = *shape;
    Operands ops = make_operands(s);
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.k) * static_cast<double>(s.n);

    const double ref_st_ms =
        time_best_ms(min_time_ms, [&] { run_reference(s, ops); });

    for (const Mode& mode : modes) {
      gemm_runtime_select(mode.spec.empty() ? default_spec : mode.spec);
      const std::string kernel = gemm_runtime_info().variant;

      const double blk_st_ms = time_best_ms(min_time_ms, [&] { run_blocked(s, ops); });
      const double speedup_st = ref_st_ms / blk_st_ms;
      char line[512];
      std::snprintf(
          line, sizeof(line),
          "    {\"name\": \"%s%s\", \"variant\": \"%s\", \"m\": %lld, "
          "\"k\": %lld, \"n\": %lld, \"kernel\": \"%s\", "
          "\"ref_st_ms\": %.4f, \"blk_st_ms\": %.4f, "
          "\"blk_st_gflops\": %.2f, \"speedup_st\": %.3f}",
          s.name, mode.suffix.c_str(), variant_name(s.variant),
          static_cast<long long>(s.m), static_cast<long long>(s.k),
          static_cast<long long>(s.n), kernel.c_str(), ref_st_ms, blk_st_ms,
          flops / (blk_st_ms * 1e6), speedup_st);
      std::fprintf(stderr,
                   "%-14s %4lldx%4lldx%4lld  %-8s ref %8.3f ms  blocked "
                   "%8.3f ms  speedup %5.2fx\n",
                   (s.name + mode.suffix).c_str(), static_cast<long long>(s.m),
                   static_cast<long long>(s.k), static_cast<long long>(s.n),
                   kernel.c_str(), ref_st_ms, blk_st_ms, speedup_st);
      if (!first) json += ",\n";
      first = false;
      json += line;
    }
  }
  json += "\n  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json;
  std::cout << out_path << std::endl;
  return 0;
}
