// Generic (portable) GEMM micro-kernel: the 4x8 register tile in GCC vector
// extensions that every arch-specialised variant must reproduce bit-for-bit.
// The k-loop starts 4x2 4-lane vector registers from +0, accumulates the
// full k extent in ascending order (one rounded mul + one rounded add per
// term — see the contract in gemm_kernel.hpp), and stores the registers to
// the C tile, or adds them onto it (kAddAtStore).  The
// generic vector plane (tensor/gemm_plane.inc) is built here for the
// baseline ISA, on 4-lane vectors.
#include "tensor/gemm_kernel.hpp"

#include <cstring>

namespace fedhisyn::gemmk {

namespace {

constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 8;

// --- 4-lane float vector abstraction ----------------------------------------
// On GCC/Clang this is the builtin vector type, so the accumulator register
// layout (kMR x kNR/4 xmm tiles) doesn't depend on the autovectorizer;
// elsewhere it is a plain struct the optimiser scalarises.  Lane arithmetic
// is per-lane IEEE mul/add — the same rounding as scalar code — so every
// formulation below produces identical bits (no reassociation anywhere).
#if defined(__GNUC__) || defined(__clang__)
// may_alias: B and the C tile are float arrays read through lanes.
typedef float v4f __attribute__((vector_size(16), may_alias));
#define FEDHISYN_ALWAYS_INLINE __attribute__((always_inline)) inline

inline v4f v4_broadcast(float x) { return v4f{x, x, x, x}; }
#else
struct v4f {
  float lane[4];
  friend v4f operator+(v4f a, v4f b) {
    return {{a.lane[0] + b.lane[0], a.lane[1] + b.lane[1], a.lane[2] + b.lane[2],
             a.lane[3] + b.lane[3]}};
  }
  friend v4f operator*(v4f a, v4f b) {
    return {{a.lane[0] * b.lane[0], a.lane[1] * b.lane[1], a.lane[2] * b.lane[2],
             a.lane[3] * b.lane[3]}};
  }
  v4f& operator+=(v4f o) { return *this = *this + o; }
};
#define FEDHISYN_ALWAYS_INLINE inline

inline v4f v4_broadcast(float x) { return {{x, x, x, x}}; }
#endif

// Unaligned load/store via memcpy (compiles to movups; also sidesteps
// aliasing rules for the portable struct).
FEDHISYN_ALWAYS_INLINE v4f v4_loadu(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
FEDHISYN_ALWAYS_INLINE void v4_storeu(float* p, v4f v) {
  std::memcpy(p, &v, sizeof(v));
}

static_assert(kNR % 4 == 0);
constexpr std::int64_t kNV = kNR / 4;

// One k term: vacc[ii][jv] += a[ii][off] * b[4*jv..4*jv+3].
FEDHISYN_ALWAYS_INLINE void micro_step(const float* const* a, std::int64_t off,
                                       const float* b, v4f vacc[kMR][kNV]) {
  for (std::int64_t ii = 0; ii < kMR; ++ii) {
    const v4f ai = v4_broadcast(a[ii][off]);
    for (std::int64_t jv = 0; jv < kNV; ++jv) {
      vacc[ii][jv] += ai * v4_loadu(b + jv * 4);
    }
  }
}

// An edge tile narrower than kNR: one scalar chain per valid element, the
// same terms in the same order as a vector lane, so the bits match.
void scalar_tile(const float* const* a, std::int64_t a_step, const float* b,
                 std::int64_t ldb, std::int64_t k, float* c, std::int64_t ldc,
                 std::int64_t mr_valid, std::int64_t nr_valid, StoreMode mode) {
  for (std::int64_t ii = 0; ii < mr_valid; ++ii) {
    float* ci = c + ii * ldc;
    for (std::int64_t jj = 0; jj < nr_valid; ++jj) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a[ii][p * a_step] * b[p * ldb + jj];
      ci[jj] = mode == StoreMode::kAddAtStore ? ci[jj] + acc : acc;
    }
  }
}

// vacc[ii][jv] += sum_p a[ii][p*a_step] * b[p*ldb + 4*jv..], p ascending.
// Two k steps per iteration halve loop bookkeeping; each accumulator still
// sees its terms strictly in ascending p order (sequential adds, never a
// second accumulator), so the unroll is invisible to the bits.  Full-width
// tiles run the vector loop and move only rows [0, mr_valid) of C; a
// ragged last column sub-panel takes the scalar tail loops above.
void kloop_4x8(const float* const* a, std::int64_t a_step, const float* b,
               std::int64_t ldb, std::int64_t k, float* c, std::int64_t ldc,
               std::int64_t mr_valid, std::int64_t nr_valid, StoreMode mode) {
  if (nr_valid < kNR) {
    scalar_tile(a, a_step, b, ldb, k, c, ldc, mr_valid, nr_valid, mode);
    return;
  }
  v4f vacc[kMR][kNV];
  const float* ar[kMR];
#pragma GCC unroll 4
  for (std::int64_t ii = 0; ii < kMR; ++ii) {
    for (std::int64_t jv = 0; jv < kNV; ++jv) vacc[ii][jv] = v4_broadcast(0.0f);
    ar[ii] = a[ii];
  }
  std::int64_t p = 0;
  for (; p + 2 <= k; p += 2) {
    micro_step(ar, p * a_step, b + p * ldb, vacc);
    micro_step(ar, (p + 1) * a_step, b + (p + 1) * ldb, vacc);
  }
  for (; p < k; ++p) micro_step(ar, p * a_step, b + p * ldb, vacc);
#pragma GCC unroll 4
  for (std::int64_t ii = 0; ii < kMR; ++ii) {
    if (ii >= mr_valid) continue;
    for (std::int64_t jv = 0; jv < kNV; ++jv) {
      float* cij = c + ii * ldc + jv * 4;
      const v4f v = mode == StoreMode::kAddAtStore ? v4_loadu(cij) + vacc[ii][jv]
                                                   : vacc[ii][jv];
      v4_storeu(cij, v);
    }
  }
}

bool always_supported() { return true; }

// The driver's row-pointer array must fit this tile.
static_assert(kMR <= kMaxMR);

}  // namespace

}  // namespace fedhisyn::gemmk

#define FEDHISYN_PLANE_TARGET
#define FEDHISYN_PLANE_LANES 4
#include "tensor/gemm_plane.inc"

namespace fedhisyn::gemmk {

const GemmKernel& gemm_variant_generic() {
  static const GemmKernel kernel{"generic", always_supported, kMR, kNR, kloop_4x8, kVecPlane};
  return kernel;
}

}  // namespace fedhisyn::gemmk
