// Unit tests for src/tensor: GEMM kernels against a naive reference and an
// order-exact reference (exact float equality — the blocked kernel must
// preserve the per-element reduction order), the kernel-variant equivalence
// matrix (every ISA micro-kernel forced via gemm_runtime_select must
// reproduce the same bits), the same matrix for every vector-plane entry,
// the runtime selection, softmax/xent numerics, im2col/col2im adjointness,
// elementwise ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_tune.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace fedhisyn {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void naive_gemm(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c, std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

TEST(Tensor, ShapeAndNumel) {
  Tensor t({3, 4, 5});
  EXPECT_EQ(t.numel(), 60);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 4);
  t.reshape({12, 5});
  EXPECT_EQ(t.dim(0), 12);
  EXPECT_THROW(t.reshape({7, 7}), CheckError);
}

TEST(Tensor, RowViewIsContiguousSlice) {
  Tensor t({4, 3});
  for (std::int64_t i = 0; i < 12; ++i) t.at(i) = static_cast<float>(i);
  const auto row2 = t.row(2);
  EXPECT_EQ(row2.size(), 3u);
  EXPECT_FLOAT_EQ(row2[0], 6.0f);
  EXPECT_FLOAT_EQ(row2[2], 8.0f);
  EXPECT_THROW(t.row(4), CheckError);
}

TEST(Tensor, FillAndResize) {
  Tensor t({2, 3});
  t.fill(3.5f);
  EXPECT_FLOAT_EQ(t.at(5), 3.5f);
  const float* storage = t.data();
  // Shrinking keeps the prefix and the storage.
  t.resize({2, 2});
  EXPECT_EQ(t.numel(), 4);
  EXPECT_EQ(t.span().size(), 4u);
  EXPECT_EQ(t.data(), storage);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.at(i), 3.5f);
  // Growing back within the capacity keeps the prefix and the storage and
  // zeroes only the grown tail.
  t.at(0) = -1.0f;
  t.resize({6});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.data(), storage);
  EXPECT_EQ(t.at(0), -1.0f);
  for (std::int64_t i = 1; i < 4; ++i) EXPECT_EQ(t.at(i), 3.5f);
  EXPECT_EQ(t.at(4), 0.0f);
  EXPECT_EQ(t.at(5), 0.0f);
  // An unchanged shape is a no-op.
  t.resize({6});
  EXPECT_EQ(t.at(0), -1.0f);
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(100 + m * 7 + k * 3 + n);
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm(a, b, c, m, k, n);
  naive_gemm(a, b, ref, m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3f * (std::abs(ref[i]) + 1.0f)) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 5, 7),
                                           std::make_tuple(17, 4, 9),
                                           std::make_tuple(32, 64, 10),
                                           std::make_tuple(64, 8, 128),
                                           std::make_tuple(2, 100, 2)));

TEST(Gemm, AccumulateAddsOntoC) {
  // gemm_nt is the one accumulating op: C += A * B^T with B stored (n x k).
  Rng rng(3);
  const auto a = random_vec(6, rng);
  const auto b_t = random_vec(6, rng);
  std::vector<float> c(4, 1.0f);
  gemm_nt(a, b_t, c, 2, 3, 2, /*accumulate=*/true);
  std::vector<float> b(6);
  for (int j = 0; j < 2; ++j) {
    for (int p = 0; p < 3; ++p) b[p * 2 + j] = b_t[j * 3 + p];
  }
  std::vector<float> ref(4, 0.0f);
  naive_gemm(a, b, ref, 2, 3, 2);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(c[i], ref[i] + 1.0f, 1e-4f);
}

TEST(Gemm, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(5);
  const std::int64_t m = 6;
  const std::int64_t k = 9;
  const std::int64_t n = 4;
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);   // m x k
  const auto b = random_vec(static_cast<std::size_t>(n * k), rng);   // n x k
  // gemm_nt: C = A * B^T
  std::vector<float> c(static_cast<std::size_t>(m * n));
  gemm_nt(a, b, c, m, k, n);
  std::vector<float> bt(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t p = 0; p < k; ++p) bt[p * n + i] = b[i * k + p];
  }
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  naive_gemm(a, bt, ref, m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  // gemm_tn: C = A2^T * B2 with A2 (k x m), B2 (k x n).
  const auto a2 = random_vec(static_cast<std::size_t>(k * m), rng);
  const auto b2 = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c2(static_cast<std::size_t>(m * n));
  gemm_tn(a2, b2, c2, m, k, n);
  std::vector<float> a2t(static_cast<std::size_t>(m * k));
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t i = 0; i < m; ++i) a2t[i * k + p] = a2[p * m + i];
  }
  std::vector<float> ref2(static_cast<std::size_t>(m * n));
  naive_gemm(a2t, b2, ref2, m, k, n);
  for (std::size_t i = 0; i < ref2.size(); ++i) EXPECT_NEAR(c2[i], ref2[i], 1e-4f);
}

// --- order-exact references --------------------------------------------------
// Same per-element float arithmetic as the kernels, spelled naively: k terms
// in ascending order from +0; an accumulating gemm_nt adds the sum to C at
// the store.  Every kernel variant, inline or pooled, must reproduce these
// bits exactly.

void exact_gemm(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c, std::int64_t m, std::int64_t k,
                std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[static_cast<std::size_t>(i * k + p)] *
               b[static_cast<std::size_t>(p * n + j)];
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
}

void exact_gemm_nt(const std::vector<float>& a, const std::vector<float>& b,
                   std::vector<float>& c, std::int64_t m, std::int64_t k,
                   std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[static_cast<std::size_t>(i * k + p)] *
               b[static_cast<std::size_t>(j * k + p)];
      }
      float& cij = c[static_cast<std::size_t>(i * n + j)];
      cij = accumulate ? cij + acc : acc;
    }
  }
}

void exact_gemm_tn(const std::vector<float>& a, const std::vector<float>& b,
                   std::vector<float>& c, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[static_cast<std::size_t>(p * m + i)] *
               b[static_cast<std::size_t>(p * n + j)];
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
}

// Run the selected kernel variant on one shape, all three ops, and demand
// exact float equality with the order-exact references: NN and TN
// overwrite, NT runs both without and with `accumulate`.  C starts from the
// same random contents on both sides, so an overwrite that reads C, or an
// accumulation that skips it, moves the bits.  Operands are sized exactly,
// so a sanitizer build catches any read or write past an edge tile's valid
// corner.
void expect_all_variants_exact(std::int64_t m, std::int64_t k, std::int64_t n, Rng& rng) {
  SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n);
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  const auto c0 = random_vec(static_cast<std::size_t>(m * n), rng);
  const auto a_t = random_vec(static_cast<std::size_t>(k * m), rng);   // (k x m)
  const auto b_t = random_vec(static_cast<std::size_t>(n * k), rng);   // (n x k)

  auto c = c0;
  auto ref = c0;
  gemm(a, b, c, m, k, n);
  exact_gemm(a, b, ref, m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(c[i], ref[i]) << "gemm at " << i;
  }

  for (const bool accumulate : {false, true}) {
    c = c0;
    ref = c0;
    gemm_nt(a, b_t, c, m, k, n, accumulate);
    exact_gemm_nt(a, b_t, ref, m, k, n, accumulate);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(c[i], ref[i]) << "gemm_nt accumulate=" << accumulate << " at " << i;
    }
  }

  c = c0;
  ref = c0;
  gemm_tn(a_t, b, c, m, k, n);
  exact_gemm_tn(a_t, b, ref, m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(c[i], ref[i]) << "gemm_tn at " << i;
  }
}

// Adversarial shapes for the blocked kernel: degenerate m/n/k of 1, sizes
// straddling every register tile (m around MR 4 and 8, n around NR 8 and
// 16), the two-tile row strip (m around 8 and 16), the column panel (512,
// via n = 520, and 45x300x530: two panels with edges in both dimensions),
// and the batch-50 shapes of the paper MLPs' forward, dW and dx GEMMs, where
// Table 1 spends its time.  The second block targets the in-place operand
// path: m < MR on full narrow B sub-panels (A rows clamped), m not a multiple
// of MR, the in-place/packed B boundary (n = 127 and 128: B rows under and
// at 512 bytes), the narrow/wide trace-class boundary (n = 256 and 257) and
// a tall TN shape.  Every narrow NN/TN shape whose n is not a multiple of
// NR (n = 1, 7, 9, 10, 15, 127) reads its ragged last B sub-panel in place
// under the kernel's column mask, and every shape with an edge row or
// column stores its tile's valid corner straight to C; the output layer
// (50x16x10 NN, 16x50x10 TN) is the Table-1 case.  The last block is the
// paper CNN's per-sample filter-gradient NTs (75x64x16 and 400x16x32),
// which accumulate over the batch.  Operands are sized exactly, so a
// sanitizer build catches any unclamped A row, any B over-read and any
// store past the valid corner.  Shared between the parameterised suite
// (default kernel) and the kernel-variant matrix below.
const std::tuple<int, int, int> kGemmEdgeShapes[] = {
    {1, 1, 1},    {1, 300, 1},   {1, 37, 300},  {300, 37, 1},
    {3, 5, 7},    {4, 64, 8},    {5, 64, 9},    {7, 129, 15},
    {9, 33, 130}, {33, 70, 520}, {64, 256, 96},
    {50, 32, 16}, {32, 50, 16},  {50, 16, 32},  {50, 16, 10},
    {16, 50, 10}, {50, 10, 16},  {50, 192, 32}, {192, 50, 32},
    {3, 40, 32},  {7, 784, 16},  {50, 784, 32}, {784, 50, 32},
    {13, 20, 64}, {21, 24, 127}, {21, 24, 128}, {21, 24, 256},
    {21, 24, 257}, {3072, 50, 32},
    {75, 64, 16}, {400, 16, 32}, {45, 300, 530},
};

class GemmExactShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmExactShapes, WithAndWithoutAccumulateMatchOrderExactReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(4000 + m * 131 + k * 17 + n);
  expect_all_variants_exact(m, k, n, rng);
}

INSTANTIATE_TEST_SUITE_P(EdgeShapes, GemmExactShapes,
                         ::testing::ValuesIn(kGemmEdgeShapes));

// --- kernel-variant equivalence + runtime selection --------------------------

/// RAII kernel override through gemm_runtime_select (see
/// docs/ARCHITECTURE.md): select `spec`, restore the previous selection on
/// exit.
class ScopedGemmKernel {
 public:
  explicit ScopedGemmKernel(const std::string& spec)
      : previous_(gemm_runtime_info().variant) {
    gemm_runtime_select(spec);
  }
  ~ScopedGemmKernel() { gemm_runtime_select(previous_); }
  ScopedGemmKernel(const ScopedGemmKernel&) = delete;
  ScopedGemmKernel& operator=(const ScopedGemmKernel&) = delete;

 private:
  std::string previous_;
};

// Every variant this CPU runs, forced via the selection, must reproduce
// the order-exact reference bits on every edge shape, all three ops, NT
// with and without accumulate.  The references are the same anchor the default-kernel suite uses,
// so this is transitively exact equality across all variants.
TEST(GemmKernelMatrix, AllVariantsBitIdenticalToOrderExactReference) {
  const auto variants = gemm_supported_variants();
  ASSERT_FALSE(variants.empty());
  for (const std::string& variant : variants) {
    SCOPED_TRACE(variant);
    ScopedGemmKernel forced(variant);
    EXPECT_EQ(gemm_runtime_info().variant, variant);
    EXPECT_EQ(gemm_runtime_config().name, variant);
    for (const auto& shape : kGemmEdgeShapes) {
      const auto [m, k, n] = shape;
      Rng rng(4000 + m * 131 + k * 17 + n);
      expect_all_variants_exact(m, k, n, rng);
    }
  }
}

TEST(GemmKernelMatrix, ForcedBadOrUnsupportedVariantFailsLoudly) {
  const std::string before = gemm_runtime_info().variant;

  // Unknown variant names: neon and variant:MRxNR tile pins are not part
  // of the grammar.
  for (const char* spec : {"bogus", "neon", "generic:4x8", "avx2:6x16", "avx512:8x16"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(gemm_runtime_select(spec), CheckError);
  }
  // A real variant this CPU cannot run.  Only hosts lacking avx512 or avx2
  // reach it; an AVX-512 host runs every variant.
  const auto supported = gemm_supported_variants();
  for (const std::string candidate : {"avx2", "avx512"}) {
    if (std::find(supported.begin(), supported.end(), candidate) ==
        supported.end()) {
      EXPECT_THROW(gemm_runtime_select(candidate), CheckError);
    }
  }

  // A failed select leaves the previous (valid) selection intact.
  EXPECT_EQ(gemm_runtime_info().variant, before);
  Rng rng(11);
  const auto a = random_vec(4 * 6, rng);
  const auto b = random_vec(6 * 5, rng);
  std::vector<float> c(4 * 5);
  gemm(a, b, c, 4, 6, 5);  // must not throw
}

// --- VecPlaneMatrix: every vector-plane entry under every variant ----------

/// Normal draws with a special value at every fifth slot: NaN, +-0, a
/// denormal and +-inf in turn.
std::vector<float> plane_input(std::size_t n, Rng& rng) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min() * 3.0f,
                            -std::numeric_limits<float>::denorm_min() * 5.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  auto v = random_vec(n, rng);
  for (std::size_t i = 2; i < n; i += 5) v[i] = specials[(i / 5) % std::size(specials)];
  return v;
}

/// Values from a small set, so 2x2 windows tie, hold NaN first or later,
/// and mix +0 with -0.
std::vector<float> pool_input(std::size_t n, Rng& rng) {
  const float values[] = {std::numeric_limits<float>::quiet_NaN(), 0.0f, -0.0f, 1.0f, -1.0f,
                          2.0f};
  std::vector<float> v(n);
  for (auto& x : v) x = values[rng.uniform_index(std::size(values))];
  return v;
}

/// Demands identical bits.  With `any_nan`, a NaN where a NaN is expected
/// matches whatever its sign and payload (see VecPlaneMatrix.Mixer).
template <class T>
void expect_same_bits(const std::vector<T>& expected, const std::vector<T>& got,
                      const char* what, bool any_nan = false) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (any_nan && std::isnan(expected[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << what << " differs at " << i << ": "
                                      << expected[i] << " vs " << got[i];
      continue;
    }
    ASSERT_EQ(0, std::memcmp(&expected[i], &got[i], sizeof(T)))
        << what << " differs at " << i << ": " << expected[i] << " vs " << got[i];
  }
}

/// Lengths 1-33 cover every 16-, 8- and 4-lane step with every tail; 141
/// runs the Mixer's 8-register blocks past a full AVX-512 block and a tail.
std::vector<std::int64_t> plane_lengths() {
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 1; n <= 33; ++n) lengths.push_back(n);
  lengths.push_back(141);
  return lengths;
}

/// Runs `outputs(plane)` with the generic plane and with every supported
/// variant's, from the same inputs, and demands identical bits (with
/// `any_nan`, as expect_same_bits').
template <class Outputs>
void expect_plane_matches_generic(const Outputs& outputs, bool any_nan = false) {
  const auto expected = outputs(gemmk::gemm_variant_generic().plane);
  for (const std::string& variant : gemm_supported_variants()) {
    SCOPED_TRACE(variant);
    ScopedGemmKernel forced(variant);
    const auto got = outputs(gemm_runtime_config().plane);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_bits(expected[i], got[i], "output", any_nan);
    }
  }
}

TEST(VecPlaneMatrix, OptimizerStepsAndScaledAdd) {
  for (const std::int64_t n : plane_lengths()) {
    SCOPED_TRACE(n);
    Rng rng(900 + n);
    const auto size = static_cast<std::size_t>(n);
    const auto w = plane_input(size, rng);
    const auto g = plane_input(size, rng);
    const auto a = plane_input(size, rng);
    const auto b = plane_input(size, rng);
    std::vector<double> acc0(size);
    for (auto& v : acc0) v = rng.normal();
    expect_plane_matches_generic([&](const gemmk::VecPlane& plane) {
      std::vector<std::vector<float>> out(6, w);
      plane.sgd(out[0].data(), g.data(), 0.05f, n);
      plane.prox_sgd(out[1].data(), g.data(), a.data(), 0.05f, 0.01f, n);
      out[3] = b;  // the velocity
      plane.momentum_sgd(out[2].data(), g.data(), out[3].data(), 0.05f, 0.9f, n);
      plane.scaffold(out[4].data(), g.data(), a.data(), b.data(), 0.05f, n);
      auto acc = acc0;
      plane.scaled_add(acc.data(), g.data(), 0.375, n);
      out[5].resize(size * 2);
      std::memcpy(out[5].data(), acc.data(), size * sizeof(double));
      return out;
    });
  }
}

TEST(VecPlaneMatrix, BiasReluMaskAndSums) {
  constexpr std::int64_t kRows = 5;
  for (const std::int64_t n : plane_lengths()) {
    SCOPED_TRACE(n);
    Rng rng(1900 + n);
    const auto size = static_cast<std::size_t>(n);
    const auto y = plane_input(size * kRows, rng);
    const auto grad = plane_input(size * kRows, rng);
    const auto bias = plane_input(size, rng);
    const auto plane_bias = plane_input(kRows, rng);
    const auto sums = plane_input(size, rng);
    expect_plane_matches_generic([&](const gemmk::VecPlane& plane) {
      std::vector<std::vector<float>> out;
      for (const bool relu : {false, true}) {
        out.push_back(y);
        plane.bias_cols(out.back().data(), bias.data(), kRows, n, relu);
        out.push_back(y);
        plane.bias_planes(out.back().data(), plane_bias.data(), kRows, n, relu);
        out.push_back(grad);
        out.push_back(std::vector<float>(size));
        plane.mask_col_sums(out[out.size() - 2].data(), relu ? y.data() : nullptr,
                            out.back().data(), kRows, n);
      }
      out.push_back(grad);
      plane.relu_mask(out.back().data(), y.data(), n * kRows);
      out.push_back(sums);
      plane.channel_sums(grad.data(), n, kRows, out.back().data());
      return out;
    });
  }
}

TEST(VecPlaneMatrix, Mixer) {
  // Each output's double chain can add a +NaN carried from the inputs and
  // the -NaN that inf * 0 makes.  x86 keeps the first operand's NaN, and
  // the compiler may commute `sum + product`, so which NaN survives is a
  // codegen choice (the -O1 TSan build and -O2 Release choose
  // differently).  A NaN's sign and payload are outside the byte-identity
  // contract (docs/ARCHITECTURE.md), so a NaN output only has to be a NaN;
  // every other output stays bit-exact.
  for (const std::int64_t dim : plane_lengths()) {
    SCOPED_TRACE(dim);
    Rng rng(2900 + dim);
    const auto size = static_cast<std::size_t>(dim);
    const auto rt = plane_input(size * size, rng);
    const auto x = plane_input(size, rng);
    expect_plane_matches_generic(
        [&](const gemmk::VecPlane& plane) {
          std::vector<std::vector<float>> out{x};
          std::vector<double> acc(size);
          plane.mix(rt.data(), dim, out[0].data(), acc.data());
          return out;
        },
        /*any_nan=*/true);
  }
}

TEST(VecPlaneMatrix, MaxPoolTiesNaNAndOddEdges) {
  constexpr std::int64_t kPlanes = 2;
  for (const std::int64_t ow : plane_lengths()) {
    for (const std::int64_t w : {2 * ow, 2 * ow + 1}) {
      for (const std::int64_t h : {2, 3, 4}) {
        SCOPED_TRACE(testing::Message() << h << "x" << w);
        Rng rng(3900 + w * 7 + h);
        const auto in_size = static_cast<std::size_t>(kPlanes * h * w);
        const auto out_size = static_cast<std::size_t>(kPlanes * (h / 2) * ow);
        const auto x = pool_input(in_size, rng);
        const auto grad_out = plane_input(out_size, rng);
        expect_plane_matches_generic([&](const gemmk::VecPlane& plane) {
          std::vector<std::vector<float>> out{std::vector<float>(out_size),
                                              std::vector<float>(in_size, 7.0f)};
          plane.maxpool2_forward(x.data(), out[0].data(), kPlanes, h, w);
          plane.maxpool2_backward(x.data(), grad_out.data(), out[1].data(), kPlanes, h, w);
          return out;
        });
      }
    }
  }
}

TEST(VecPlaneMatrix, Im2colAndCol2imRows) {
  for (const std::int64_t width : {4, 5, 8, 9, 12, 33}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t padding : {0, 2}) {
        ConvGeometry g;
        g.channels = 2;
        g.height = 5;
        g.width = width;
        g.kernel = 3;
        g.stride = stride;
        g.padding = padding;
        SCOPED_TRACE(testing::Message() << width << " s" << stride << " p" << padding);
        Rng rng(4900 + width * 11 + stride * 3 + padding);
        const auto padded_size = static_cast<std::size_t>(
            g.channels * (g.height + 2 * padding) * (g.width + 2 * padding));
        const auto padded = plane_input(padded_size, rng);
        const auto columns =
            plane_input(static_cast<std::size_t>(g.col_rows() * g.col_cols()), rng);
        expect_plane_matches_generic([&](const gemmk::VecPlane& plane) {
          std::vector<std::vector<float>> out{std::vector<float>(columns.size()), padded};
          plane.im2col_rows(padded.data(), g, out[0].data());
          plane.col2im_rows(columns.data(), g, out[1].data());
          return out;
        });
      }
    }
  }
}

/// FNV-1a over the bits of `v`.
std::uint64_t bits_digest(const std::vector<float>& v) {
  std::uint64_t digest = 14695981039346656037ull;
  for (const float x : v) {
    std::uint32_t b;
    std::memcpy(&b, &x, sizeof(b));
    for (int k = 0; k < 4; ++k) {
      digest ^= (b >> (8 * k)) & 0xff;
      digest *= 1099511628211ull;
    }
  }
  return digest;
}

float float_from_bits(std::uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

TEST(VecPlaneMatrix, ExpfSampledGridDigest) {
  // Every 997th of the 2^32 bit patterns, then +-inf and NaNs.  The
  // in-tree expf does not depend on the host's libm, so the digest is
  // pinned; tools/check_expf.cpp compares every float of its range with
  // glibc's expf itself.
  std::vector<float> x;
  for (std::uint64_t b = 0; b < (1ull << 32); b += 997) {
    x.push_back(float_from_bits(static_cast<std::uint32_t>(b)));
  }
  for (const std::uint32_t b : {0x7f800000u, 0xff800000u, 0x7fc00000u, 0xffc00000u, 0x7f800001u}) {
    x.push_back(float_from_bits(b));
  }
  const auto n = static_cast<std::int64_t>(x.size());
  for (const std::string& variant : gemm_supported_variants()) {
    SCOPED_TRACE(variant);
    ScopedGemmKernel forced(variant);
    const auto expf = gemm_runtime_config().plane.expf;
    std::vector<float> y(x.size());
    expf(x.data(), y.data(), n);
    EXPECT_EQ(bits_digest(y), 13683225398729868871ull);

    // glibc's special cases: -inf and below log(2^-150) give +0, above
    // log(2^128) +inf, a NaN stays a NaN.
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> in = {-inf, -104.0f, 89.0f, inf, std::nanf(""), 0.0f, -0.0f, 1.0f};
    std::vector<float> out(in.size());
    expf(in.data(), out.data(), static_cast<std::int64_t>(in.size()));
    const std::vector<float> want = {0.0f, 0.0f, inf, inf, out[4], 1.0f, 1.0f, 0x1.5bf0a8p+1f};
    expect_same_bits(want, out, "expf");
    EXPECT_TRUE(std::isnan(out[4]));
  }
}

/// Rows of logits: normal draws spread over about +-8, with about one slot
/// in 4 * cols + 3 a NaN, +-inf or +-100 (so x - max reaches expf's
/// underflow).  A NaN or +inf makes its row's loss and gradient NaN, so
/// most rows keep none.
std::vector<float> logit_input(std::size_t n, std::int64_t cols, Rng& rng) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 100.0f, -100.0f};
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.uniform_index(static_cast<std::uint64_t>(4 * cols + 3)) == 0
            ? specials[rng.uniform_index(std::size(specials))]
            : 4.0f * static_cast<float>(rng.normal());
  }
  return v;
}

/// softmax_xent_rows' scalar loop, one row and one column at a time, with
/// the generic plane's in-tree expf called on single elements for the exp:
/// returns the loss sum and writes the gradient when `grad` is non-null.
double scalar_softmax_xent(const std::vector<float>& logits,
                           const std::vector<std::int32_t>& labels, std::int64_t rows,
                           std::int64_t cols, float* grad) {
  const auto expf = gemmk::gemm_variant_generic().plane.expf;
  const float inv_rows = 1.0f / static_cast<float>(rows);
  std::vector<float> e(static_cast<std::size_t>(cols));
  double total = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = logits.data() + r * cols;
    const std::int32_t y = labels[static_cast<std::size_t>(r)];
    float max_v = row[0];
    for (std::int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, row[c]);
    double sum = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float d = row[c] - max_v;
      expf(&d, &e[static_cast<std::size_t>(c)], 1);
      sum += e[static_cast<std::size_t>(c)];
    }
    total += std::log(sum) + max_v - row[y];
    if (grad != nullptr) {
      float* g = grad + r * cols;
      const double inv_sum = 1.0 / sum;
      for (std::int64_t c = 0; c < cols; ++c) {
        g[c] = static_cast<float>(e[static_cast<std::size_t>(c)] * inv_sum) * inv_rows;
      }
      g[y] -= inv_rows;
    }
  }
  return total;
}

TEST(VecPlaneMatrix, SoftmaxXentMatchesScalarReference) {
  // Rows 1-33 run every block of 2, 4 or 8 rows with every short last
  // block; 100 columns is cifar100, 200 more than any data set.  Every
  // output that is not a NaN is bit-exact.  A NaN only has to be a NaN: a
  // NaN logit or inf - inf meets another NaN in the commutative adds of the
  // sum and the loss total and in the gradient's product, and x86 keeps the
  // first operand's NaN, whose place each build picks for itself (as in
  // VecPlaneMatrix.Mixer; docs/ARCHITECTURE.md).
  for (const std::int64_t cols : {1, 2, 10, 26, 100, 200}) {
    for (std::int64_t rows = 1; rows <= 33; ++rows) {
      SCOPED_TRACE(testing::Message() << rows << "x" << cols);
      Rng rng(5900 + rows * 211 + cols);
      const auto size = static_cast<std::size_t>(rows * cols);
      const auto logits = logit_input(size, cols, rng);
      std::vector<std::int32_t> labels(static_cast<std::size_t>(rows));
      for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(cols));
      std::vector<float> want_grad(size);
      const double want = scalar_softmax_xent(logits, labels, rows, cols, want_grad.data());
      for (const std::string& variant : gemm_supported_variants()) {
        SCOPED_TRACE(variant);
        ScopedGemmKernel forced(variant);
        const auto softmax_xent = gemm_runtime_config().plane.softmax_xent;
        std::vector<float> grad(size, 7.0f);
        const double total = softmax_xent(logits.data(), labels.data(), rows, cols, grad.data());
        const double loss_only = softmax_xent(logits.data(), labels.data(), rows, cols, nullptr);
        expect_same_bits(std::vector<double>{want, want}, std::vector<double>{total, loss_only},
                         "loss", /*any_nan=*/true);
        expect_same_bits(want_grad, grad, "grad", /*any_nan=*/true);

        // The checked wrapper returns the mean and writes the same gradient.
        std::vector<float> wrapped(size);
        const float mean = softmax_xent_rows(logits, labels, rows, cols, wrapped);
        expect_same_bits(std::vector<float>{static_cast<float>(want / static_cast<double>(rows))},
                         std::vector<float>{mean}, "mean", /*any_nan=*/true);
        expect_same_bits(want_grad, wrapped, "wrapped grad", /*any_nan=*/true);

        // A bad label in the last row throws before any output is written.
        for (const std::int32_t bad : {static_cast<std::int32_t>(cols), -1}) {
          auto bad_labels = labels;
          bad_labels.back() = bad;
          std::vector<float> untouched(size, 7.0f);
          EXPECT_THROW(softmax_xent_rows(logits, bad_labels, rows, cols, untouched), CheckError);
          expect_same_bits(std::vector<float>(size, 7.0f), untouched, "grad after a bad label");
        }
      }
    }
  }
}

TEST(GemmRuntime, ShapeClassMapping) {
  EXPECT_EQ(gemm_shape_class(gemmk::GemmOp::kNN, kGemmWideN), "nn/narrow");
  EXPECT_EQ(gemm_shape_class(gemmk::GemmOp::kNN, kGemmWideN + 1), "nn/wide");
  EXPECT_EQ(gemm_shape_class(gemmk::GemmOp::kNT, 64), "nt/narrow");
  EXPECT_EQ(gemm_shape_class(gemmk::GemmOp::kTN, 1024), "tn/wide");
}

// --gemm-info reports exactly the one schedule the driver runs: the forced
// variant, its one tile, and a single resolved line whose panel width is 512
// rounded up to a multiple of NR and whose task height is two MR tiles.
TEST(GemmRuntime, InfoStringReportsTheOneResolvedSchedule) {
  for (const std::string& variant : gemm_supported_variants()) {
    SCOPED_TRACE(variant);
    ScopedGemmKernel forced(variant);
    const gemmk::GemmKernel& kernel = gemm_runtime_config();
    const std::int64_t mr = kernel.mr;
    const std::int64_t nr = kernel.nr;
    ASSERT_LE(mr, gemmk::kMaxMR);
    const std::string tile = std::to_string(mr) + "x" + std::to_string(nr);

    const std::string info = gemm_info_string();
    EXPECT_NE(info.find("  variant:        " + variant + "\n"), std::string::npos);
    EXPECT_NE(info.find("    " + variant + ": " + tile + "\n"), std::string::npos)
        << info;
    const std::string resolved =
        "  resolved config: " + tile +
        " nc=" + std::to_string((512 + nr - 1) / nr * nr) +
        " rows=" + std::to_string(2 * mr) + "\n";
    EXPECT_NE(info.find(resolved), std::string::npos) << info;
    const auto first = info.find(" nc=");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(info.find(" nc=", first + 1), std::string::npos) << info;
  }
  ScopedGemmKernel automatic("auto");
  EXPECT_NE(gemm_info_string().find("  variant:        " +
                                    gemm_supported_variants().front() + "\n"),
            std::string::npos);
}

TEST(GemmExact, ExactZeroOperandsTakeNoShortcut) {
  // The old kernel skipped k terms where a == 0.0f; the blocked kernel must
  // not (data-dependent timing, and +-0 terms still participate in rounding).
  // ReLU-style inputs: half the A entries exactly zero, B signed.
  Rng rng(99);
  const std::int64_t m = 19;
  const std::int64_t k = 83;
  const std::int64_t n = 41;
  auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  for (std::size_t i = 0; i < a.size(); i += 2) a[i] = 0.0f;
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm(a, b, c, m, k, n);
  exact_gemm(a, b, ref, m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(c[i], ref[i]) << i;
}

TEST(Ops, Copy) {
  std::vector<float> x = {1.0f, 2.0f, 3.0f};
  std::vector<float> z(3);
  copy(x, z);
  EXPECT_EQ(z, x);
}

TEST(Ops, ArgmaxFirstOnTies) {
  std::vector<float> v = {1.0f, 5.0f, 5.0f, 2.0f};
  EXPECT_EQ(argmax(v), 1);
}

TEST(Ops, XentLossMatchesHandComputation) {
  // Two rows, 2 classes, logits chosen so softmax is analytic.
  std::vector<float> logits = {0.0f, 0.0f, 1.0f, 0.0f};
  std::vector<std::int32_t> labels = {0, 1};
  const float loss = softmax_xent_rows(logits, labels, 2, 2, {});
  // Row 0: -log(0.5); Row 1: -log(sigmoid(-1)) = log(1 + e^1).
  const double expected = 0.5 * (std::log(2.0) + std::log(1.0 + std::exp(1.0)));
  EXPECT_NEAR(loss, expected, 1e-5);
}

TEST(Ops, XentGradientMatchesFiniteDifference) {
  Rng rng(9);
  const std::int64_t rows = 4;
  const std::int64_t cols = 5;
  auto logits = random_vec(static_cast<std::size_t>(rows * cols), rng);
  std::vector<std::int32_t> labels = {0, 3, 2, 4};
  std::vector<float> grad(logits.size());
  softmax_xent_rows(logits, labels, rows, cols, grad);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    auto plus = logits;
    auto minus = logits;
    plus[i] += eps;
    minus[i] -= eps;
    const float lp = softmax_xent_rows(plus, labels, rows, cols, {});
    const float lm = softmax_xent_rows(minus, labels, rows, cols, {});
    const float fd = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(grad[i], fd, 5e-3f) << "logit " << i;
  }
}

TEST(Ops, XentRejectsOutOfRangeLabel) {
  std::vector<float> logits = {0.0f, 0.0f};
  std::vector<std::int32_t> bad = {5};
  EXPECT_THROW(softmax_xent_rows(logits, bad, 1, 2, {}), CheckError);
}

TEST(Ops, WeightedSumConvexCombination) {
  std::vector<float> a = {1.0f, 1.0f};
  std::vector<float> b = {3.0f, 5.0f};
  std::vector<std::span<const float>> inputs = {a, b};
  std::vector<double> weights = {0.25, 0.75};
  std::vector<float> out(2);
  weighted_sum(inputs, weights, out);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 4.0f);
}

TEST(Im2col, IdentityKernelReproducesImage) {
  // 1x1 kernel, stride 1, no padding: columns == image.
  ConvGeometry g;
  g.channels = 2;
  g.height = 3;
  g.width = 3;
  g.kernel = 1;
  Rng rng(21);
  const auto image = random_vec(18, rng);
  std::vector<float> columns(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(image, g, columns);
  for (std::size_t i = 0; i < image.size(); ++i) EXPECT_FLOAT_EQ(columns[i], image[i]);
}

TEST(Im2col, PaddingProducesZeroBorder) {
  ConvGeometry g;
  g.channels = 1;
  g.height = 2;
  g.width = 2;
  g.kernel = 3;
  g.padding = 1;
  std::vector<float> image = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> columns(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(image, g, columns);
  // Output is 2x2; kernel position (0,0) for output (0,0) hits padding.
  EXPECT_FLOAT_EQ(columns[0], 0.0f);
  // Kernel centre (1,1) row: should reproduce the image.
  const std::int64_t centre_row = (1 * 3 + 1) * g.col_cols();
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(columns[static_cast<std::size_t>(centre_row + i)], image[static_cast<std::size_t>(i)]);
  }
}

double dot(const std::vector<float>& x, const std::vector<float>& y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += static_cast<double>(x[i]) * y[i];
  return acc;
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property that
  // makes the convolution backward pass correct.
  ConvGeometry g;
  g.channels = 2;
  g.height = 5;
  g.width = 4;
  g.kernel = 3;
  g.stride = 1;
  g.padding = 1;
  Rng rng(33);
  const auto x = random_vec(static_cast<std::size_t>(g.channels * g.height * g.width), rng);
  const auto y = random_vec(static_cast<std::size_t>(g.col_rows() * g.col_cols()), rng);
  std::vector<float> cols(y.size());
  im2col(x, g, cols);
  std::vector<float> xt(x.size(), 0.0f);
  col2im(y, g, xt);
  const double lhs = dot(cols, y);
  const double rhs = dot(x, xt);
  EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

/// Scalar im2col reference: every element bounds-tested, padding reads +0.
std::vector<float> im2col_reference(const std::vector<float>& image, const ConvGeometry& g) {
  std::vector<float> columns(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  std::size_t i = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        for (std::int64_t y = 0; y < g.out_height(); ++y) {
          for (std::int64_t x = 0; x < g.out_width(); ++x, ++i) {
            const std::int64_t sy = y * g.stride + ky - g.padding;
            const std::int64_t sx = x * g.stride + kx - g.padding;
            const bool inside = sy >= 0 && sy < g.height && sx >= 0 && sx < g.width;
            columns[i] =
                inside ? image[static_cast<std::size_t>((c * g.height + sy) * g.width + sx)]
                       : 0.0f;
          }
        }
      }
    }
  }
  return columns;
}

/// Scalar col2im reference: adds each column element straight onto
/// image_grad (started from +0 by the caller), column rows in (c, ky, kx)
/// order; padding terms are dropped.
void col2im_reference(const std::vector<float>& columns, const ConvGeometry& g,
                      std::vector<float>& image_grad) {
  std::size_t i = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        for (std::int64_t y = 0; y < g.out_height(); ++y) {
          for (std::int64_t x = 0; x < g.out_width(); ++x, ++i) {
            const std::int64_t sy = y * g.stride + ky - g.padding;
            const std::int64_t sx = x * g.stride + kx - g.padding;
            if (sy < 0 || sy >= g.height || sx < 0 || sx >= g.width) continue;
            image_grad[static_cast<std::size_t>((c * g.height + sy) * g.width + sx)] +=
                columns[i];
          }
        }
      }
    }
  }
}

// (kernel, padding, stride, channels); every case runs on two non-square
// inputs, 5x7 and 8x6, and on inputs whose output width is exactly 4 and
// exactly 8 (the widths im2col/col2im copy at a compile-time width) where
// the geometry allows one.
class Im2colGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Im2colGeometry, MatchesScalarReferenceExactly) {
  const auto [kernel, padding, stride, channels] = GetParam();
  std::vector<std::pair<int, int>> inputs = {{5, 7}, {8, 6}};
  for (const int out_width : {4, 8}) {
    const int width = (out_width - 1) * stride + kernel - 2 * padding;
    if (width >= 1) inputs.emplace_back(6, width);
  }
  for (const auto& [height, width] : inputs) {
    ConvGeometry g;
    g.channels = channels;
    g.height = height;
    g.width = width;
    g.kernel = kernel;
    g.stride = stride;
    g.padding = padding;
    SCOPED_TRACE(testing::Message() << "input " << height << "x" << width);
    Rng rng(static_cast<std::uint64_t>(1000 + kernel * 100 + padding * 10 + stride + channels));
    const auto image =
        random_vec(static_cast<std::size_t>(g.channels * g.height * g.width), rng);
    // Junk in the output buffer: every element must be written.
    std::vector<float> columns(static_cast<std::size_t>(g.col_rows() * g.col_cols()), 7.0f);
    im2col(image, g, columns);
    const auto expected_columns = im2col_reference(image, g);
    ASSERT_EQ(0, std::memcmp(columns.data(), expected_columns.data(),
                             columns.size() * sizeof(float)));

    // col2im overwrites a junk image gradient: the reference starts from +0.
    const auto grad_columns = random_vec(columns.size(), rng);
    std::vector<float> image_grad(image.size(), std::numeric_limits<float>::quiet_NaN());
    std::vector<float> expected_grad(image.size(), 0.0f);
    col2im(grad_columns, g, image_grad);
    col2im_reference(grad_columns, g, expected_grad);
    ASSERT_EQ(0, std::memcmp(image_grad.data(), expected_grad.data(),
                             image_grad.size() * sizeof(float)));
  }
}

INSTANTIATE_TEST_SUITE_P(KernelPaddingStrideChannels, Im2colGeometry,
                         ::testing::Combine(::testing::Values(1, 3, 5),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(1, 3)));

}  // namespace
}  // namespace fedhisyn
