// check_expf — compares the vector plane's in-tree expf
// (gemmk::VecPlane::expf, src/tensor/gemm_plane.inc) of every variant this
// CPU runs with the host libm's expf, bit for bit, over every float in
// [-104, 0] and [+0, 89] (the inputs whose result is subnormal, near
// -87.3 to -104, included), +-inf and a set of quiet and signalling NaNs.
//
//   check_expf [--allow 0xHEX[,0xHEX...]]
//   check_expf --libm-digest
//
// glibc picks an FMA or a non-FMA expf body per CPU at load time, and the
// in-tree expf reproduces the non-FMA one.  Under
// GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F (glibc >= 2.33) every
// input must agree; against the FMA body only 0xc27c65d9 and 0x4202422f
// differ, which `--allow` lets through.  Prints each variant's count and
// its first differences, and exits 0 when every difference is allowed, 1
// otherwise, 2 on a usage error.  One thread; about 25 s on a 2.1 GHz Xeon.
//
// --libm-digest prints one FNV-1a digest over the bits of the host's exp,
// log and sin at 2^22 doubles each.  Several of those differ between
// glibc's FMA and non-FMA bodies, so the digest changes when the mask above
// takes effect: a check that runs the library under the mask asserts that
// first, or it would pass without having changed anything.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/gemm_kernel.hpp"
#include "tensor/gemm_tune.hpp"

namespace {

using fedhisyn::gemmk::GemmKernel;

std::uint32_t bits_of(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}
float float_of(std::uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

struct Mismatch {
  std::uint32_t input;
  std::uint32_t host;
  std::uint32_t in_tree;
};

struct VariantReport {
  const GemmKernel* kernel;
  std::uint64_t checked = 0;
  std::vector<Mismatch> mismatches;
};

// Checks the inputs [first, last] (bit patterns, ascending) against every
// variant, one chunk of host results at a time.
void check_range(std::uint32_t first, std::uint32_t last, std::vector<VariantReport>& reports) {
  constexpr std::uint32_t kChunk = 1u << 16;
  std::vector<float> x(kChunk), host(kChunk), in_tree(kChunk);
  for (std::uint64_t begin = first; begin <= last; begin += kChunk) {
    const auto n = static_cast<std::int64_t>(std::min<std::uint64_t>(kChunk, last + 1ull - begin));
    for (std::int64_t i = 0; i < n; ++i) {
      x[i] = float_of(static_cast<std::uint32_t>(begin + i));
      host[i] = std::exp(x[i]);
    }
    for (auto& report : reports) {
      report.kernel->plane.expf(x.data(), in_tree.data(), n);
      report.checked += static_cast<std::uint64_t>(n);
      if (std::memcmp(host.data(), in_tree.data(), n * sizeof(float)) == 0) continue;
      for (std::int64_t i = 0; i < n; ++i) {
        if (bits_of(host[i]) != bits_of(in_tree[i])) {
          report.mismatches.push_back({bits_of(x[i]), bits_of(host[i]), bits_of(in_tree[i])});
        }
      }
    }
  }
}

int libm_digest() {
  constexpr int kPoints = 1 << 22;
  std::uint64_t digest = 14695981039346656037ull;
  const auto mix = [&digest](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    for (int k = 0; k < 8; ++k) {
      digest ^= (b >> (8 * k)) & 0xff;
      digest *= 1099511628211ull;
    }
  };
  for (int i = 0; i < kPoints; ++i) {
    const double u = (i + 0.5) / kPoints;
    mix(std::exp(1400.0 * u - 700.0));
    mix(std::log(1e6 * u));
    mix(std::sin(2000.0 * u - 1000.0));
  }
  std::printf("%016" PRIx64 "\n", digest);
  return 0;
}

int usage() {
  std::fprintf(stderr, "usage: check_expf [--allow 0xHEX[,0xHEX...]] | --libm-digest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> allowed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--libm-digest" && argc == 2) return libm_digest();
    if (arg != "--allow" || i + 1 >= argc) return usage();
    for (const char* p = argv[++i]; *p != '\0';) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(p, &end, 16);
      if (end == p || v > 0xffffffffu || (*end != ',' && *end != '\0')) return usage();
      allowed.push_back(static_cast<std::uint32_t>(v));
      p = *end == ',' ? end + 1 : end;
    }
  }

  std::vector<VariantReport> reports;
  for (const GemmKernel* kernel :
       {&fedhisyn::gemmk::gemm_variant_generic(), &fedhisyn::gemmk::gemm_variant_avx2(),
        &fedhisyn::gemmk::gemm_variant_avx512()}) {
    if (kernel->supported()) reports.push_back({kernel, 0, {}});
  }

  check_range(bits_of(-0.0f), bits_of(-104.0f), reports);
  check_range(bits_of(0.0f), bits_of(89.0f), reports);
  for (const std::uint32_t special : {0x7f800000u, 0xff800000u, 0x7fc00000u, 0xffc00000u,
                                      0x7f800001u, 0xff800001u, 0x7fa5a5a5u, 0xffffffffu}) {
    check_range(special, special, reports);
  }

  int status = 0;
  for (const auto& report : reports) {
    std::size_t unexpected = 0;
    for (const auto& m : report.mismatches) {
      bool ok = false;
      for (const std::uint32_t a : allowed) ok = ok || a == m.input;
      if (!ok) ++unexpected;
    }
    std::printf("%s: %" PRIu64 " inputs, %zu differences (%zu not allowed)\n", report.kernel->name,
                report.checked, report.mismatches.size(), unexpected);
    for (std::size_t k = 0; k < report.mismatches.size() && k < 20; ++k) {
      const auto& m = report.mismatches[k];
      std::printf("  x 0x%08x (%a): host 0x%08x, in-tree 0x%08x\n", m.input,
                  static_cast<double>(float_of(m.input)), m.host, m.in_tree);
    }
    if (unexpected != 0) status = 1;
  }
  return status;
}
