// Blocked, packed GEMM driver (BLIS/GotoBLAS-style, sized for this
// simulator).  One driver serves all three operand layouts and every
// micro-kernel variant (gemm_kernels_*.cpp, selected once per process by
// tensor/gemm_tune.cpp):
//
//   * C is tiled over (task_rows x NC) tasks: row strips crossed with column
//     panels, both sized from the selected kernel's register tile
//     (gemmk::task_rows / gemmk::panel_width).  The 2-D grid is what the
//     pool parallelises over, so wide-N conv (im2col) shapes scale past `m`
//     threads.
//   * The B column panel is packed once per (thread, panel) into a
//     contiguous, zero-padded, 64-byte-aligned ScratchArena buffer laid out
//     in NR-wide sub-panels; A is packed per MR-row strip.  Packing
//     normalises all three memory layouts (NN / NT / TN) into the same
//     micro-kernel operands; MR/NR come from the selected kernel.
//   * Every register tile stages through a 64-byte-aligned MR x NR
//     accumulator: the driver beta-initialises it (per-op semantics below),
//     the selected k-loop accumulates the *full* k extent, and the valid
//     corner is stored back.  k is never split and every C element sees its
//     k terms in ascending order, so results are bit-identical for any
//     thread count, any tiling, any kernel variant (FEDHISYN_GEMM_KERNEL),
//     inline or pooled — the determinism contract of common/parallel.hpp
//     and gemm_kernel.hpp.
//   * Every shape takes this driver, down to the 50x16x10 layers of the
//     paper MLPs: packing is cheaper than a per-row fallback even there.
//
// Historical bit-compatibility: gemm/gemm_tn beta-initialise the accumulator
// and add the k terms on top (the old memory-accumulation order); gemm_nt
// accumulates the dot product from zero and adds beta*C at store (the old
// register order).  The old `a == 0` skip is gone: it made timing
// data-dependent (ReLU activations are full of exact zeros) and broke FP
// contraction uniformity between the skip and non-skip paths.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn {

namespace {

using gemmk::GemmKernel;
using gemmk::GemmOp;

// Below this many multiply-accumulates a call runs inline: a pool wakeup
// would cost more than the work it spreads.
constexpr std::int64_t kParallelFlopThreshold = std::int64_t{1} << 17;

// Pack the mr-row strip of op(A) starting at row i0 into ap (k x mr,
// zero-padded rows past m): ap[p*mr + ii] = op(A)(i0+ii, p).
template <GemmOp V>
void pack_a_strip(const float* a, std::int64_t m, std::int64_t k, std::int64_t i0,
                  std::int64_t mr, float* ap) {
  const std::int64_t rows = std::min(mr, m - i0);
  if constexpr (V == GemmOp::kTN) {
    // A is (k x m) row-major, so op(A)(i, p) = a[p*m + i]: contiguous in i.
    for (std::int64_t p = 0; p < k; ++p) {
      const float* src = a + p * m + i0;
      float* out = ap + p * mr;
      for (std::int64_t ii = 0; ii < rows; ++ii) out[ii] = src[ii];
      for (std::int64_t ii = rows; ii < mr; ++ii) out[ii] = 0.0f;
    }
  } else {
    // A is (m x k) row-major: read each row contiguously, scatter into the
    // strip (the strip is cache-resident, the source may not be).
    for (std::int64_t ii = 0; ii < rows; ++ii) {
      const float* src = a + (i0 + ii) * k;
      for (std::int64_t p = 0; p < k; ++p) ap[p * mr + ii] = src[p];
    }
    for (std::int64_t ii = rows; ii < mr; ++ii) {
      for (std::int64_t p = 0; p < k; ++p) ap[p * mr + ii] = 0.0f;
    }
  }
}

// Pack the column panel [jc, jc+nc) of op(B) into bp as nr-wide sub-panels:
// bp[(jr/nr)*(k*nr) + p*nr + jj] = op(B)(p, jc+jr+jj), zero-padded past n.
template <GemmOp V>
void pack_b_panel(const float* b, std::int64_t k, std::int64_t n, std::int64_t jc,
                  std::int64_t nc, std::int64_t nr, float* bp) {
  for (std::int64_t jr = 0; jr < nc; jr += nr) {
    const std::int64_t width = std::min(nr, nc - jr);
    float* panel = bp + (jr / nr) * (k * nr);
    const std::int64_t j0 = jc + jr;
    if constexpr (V == GemmOp::kNT) {
      // B is (n x k) row-major and op(B) = B^T: read B's rows contiguously,
      // scatter into the panel (resident), instead of striding k per element.
      for (std::int64_t jj = 0; jj < width; ++jj) {
        const float* src = b + (j0 + jj) * k;
        for (std::int64_t p = 0; p < k; ++p) panel[p * nr + jj] = src[p];
      }
      for (std::int64_t jj = width; jj < nr; ++jj) {
        for (std::int64_t p = 0; p < k; ++p) panel[p * nr + jj] = 0.0f;
      }
    } else {
      for (std::int64_t p = 0; p < k; ++p) {
        const float* src = b + p * n + j0;
        float* out = panel + p * nr;
        for (std::int64_t jj = 0; jj < width; ++jj) out[jj] = src[jj];
        for (std::int64_t jj = width; jj < nr; ++jj) out[jj] = 0.0f;
      }
    }
  }
}

// One register tile: beta-initialise the staging accumulator (per-op
// semantics), run the selected k-loop over the full k extent, store the
// mr_valid x nr_valid corner.  The zero padding in the packs makes the
// full-tile k-loop valid on edges too: padded rows and columns accumulate
// garbage-free zeros the store never reads.  Per element this is the exact
// init/accumulate/store arithmetic of the pre-dispatch kernel, so the bits
// are unchanged — and identical for every kernel variant.
template <GemmOp V>
void run_micro_tile(const float* ap, const float* bp, float* c, std::int64_t n,
                    std::int64_t k, std::int64_t i0, std::int64_t j0,
                    std::int64_t mr_valid, std::int64_t nr_valid, float beta,
                    const GemmKernel& kernel) {
  alignas(64) float acc[gemmk::kMaxMR * gemmk::kMaxNR];
  const std::int64_t mr = kernel.mr;
  const std::int64_t nr = kernel.nr;
  if (V == GemmOp::kNT || beta == 0.0f) {
    for (std::int64_t ii = 0; ii < mr; ++ii) {
      for (std::int64_t jj = 0; jj < nr; ++jj) acc[ii * nr + jj] = 0.0f;
    }
  } else if (beta == 1.0f) {
    // Guard the row pointer too: forming c + row*n for a padded row past the
    // end of C would be UB even unread.
    for (std::int64_t ii = 0; ii < mr; ++ii) {
      const float* ci = ii < mr_valid ? c + (i0 + ii) * n + j0 : nullptr;
      for (std::int64_t jj = 0; jj < nr; ++jj) {
        acc[ii * nr + jj] = (ii < mr_valid && jj < nr_valid) ? ci[jj] : 0.0f;
      }
    }
  } else {
    for (std::int64_t ii = 0; ii < mr; ++ii) {
      const float* ci = ii < mr_valid ? c + (i0 + ii) * n + j0 : nullptr;
      for (std::int64_t jj = 0; jj < nr; ++jj) {
        acc[ii * nr + jj] = (ii < mr_valid && jj < nr_valid) ? beta * ci[jj] : 0.0f;
      }
    }
  }
  kernel.kloop(ap, bp, k, acc);
  if (V == GemmOp::kNT && beta != 0.0f) {
    // beta == 1 multiplies by exactly 1.0f, so one path covers both.
    for (std::int64_t ii = 0; ii < mr_valid; ++ii) {
      float* ci = c + (i0 + ii) * n + j0;
      for (std::int64_t jj = 0; jj < nr_valid; ++jj) {
        ci[jj] = beta * ci[jj] + acc[ii * nr + jj];
      }
    }
  } else {
    for (std::int64_t ii = 0; ii < mr_valid; ++ii) {
      float* ci = c + (i0 + ii) * n + j0;
      for (std::int64_t jj = 0; jj < nr_valid; ++jj) ci[jj] = acc[ii * nr + jj];
    }
  }
}

// B-panel pack memo: within one public gemm call (identified by a global
// call id), a thread that processes consecutive tasks of the same column
// panel reuses its packed copy instead of re-packing.  Tasks are numbered
// panel-major for exactly this reason.  Keying on the call id (not the B
// pointer) makes stale hits impossible across calls — including across a
// gemm_runtime_select() changing the kernel between calls.
std::atomic<std::uint64_t> g_gemm_call_id{1};

struct BPanelMemo {
  std::uint64_t call_id = 0;
  std::int64_t panel_index = -1;
};
thread_local BPanelMemo tl_bpanel;

template <GemmOp V>
const float* ensure_b_panel(const float* b, std::int64_t k, std::int64_t n,
                            std::int64_t jc, std::int64_t nc, std::int64_t nr,
                            std::int64_t nc_padded, std::uint64_t call_id,
                            std::int64_t panel_index) {
  // The pool hands out task indices in ascending order, so a thread's tasks
  // for one panel are contiguous: between packing a panel and a memo hit on
  // it there is no intervening kGemmPackB request of a different size, and
  // the buffer is never reallocated out from under a hit.
  auto bp = ScratchArena::buffer(ScratchArena::kGemmPackB,
                                 static_cast<std::size_t>(k * nc_padded));
  if (tl_bpanel.call_id != call_id || tl_bpanel.panel_index != panel_index) {
    pack_b_panel<V>(b, k, n, jc, nc, nr, bp.data());
    tl_bpanel = {call_id, panel_index};
  }
  return bp.data();
}

template <GemmOp V>
void blocked_gemm(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, float beta,
                  const GemmKernel& kernel) {
  const std::int64_t mr = kernel.mr;
  const std::int64_t nr = kernel.nr;
  const std::int64_t task_rows = gemmk::task_rows(kernel);
  const std::int64_t panel_width = gemmk::panel_width(kernel);
  const std::int64_t row_strips = (m + task_rows - 1) / task_rows;
  const std::int64_t col_panels = (n + panel_width - 1) / panel_width;
  const std::int64_t tasks = row_strips * col_panels;
  const std::uint64_t call_id =
      g_gemm_call_id.fetch_add(1, std::memory_order_relaxed);

  const auto task_body = [&](std::int64_t task) {
    // Pack-vs-kernel attribution: timed only while tracing is on (the off
    // path must not read a clock), accumulated as microsecond counters so
    // --metrics-out splits GEMM time into its memory and compute halves.
    const bool traced = trace::enabled();
    const std::int64_t t_start = traced ? trace::now_us() : 0;
    // Panel-major numbering: consecutive tasks share a B panel, so the
    // per-thread pack memo hits when the pool hands a thread a run of them.
    const std::int64_t panel_index = task / row_strips;
    const std::int64_t strip_index = task % row_strips;
    const std::int64_t jc = panel_index * panel_width;
    const std::int64_t nc = std::min(panel_width, n - jc);
    const std::int64_t nc_padded = ((nc + nr - 1) / nr) * nr;
    const float* bp = ensure_b_panel<V>(b, k, n, jc, nc, nr, nc_padded, call_id,
                                        panel_index);
    const std::int64_t i_begin = strip_index * task_rows;
    const std::int64_t i_end = std::min(m, i_begin + task_rows);
    const std::int64_t strips = (i_end - i_begin + mr - 1) / mr;
    // Pack every A strip of the task up front, then walk B sub-panels in the
    // outer loop: each (k x nr) sub-panel is touched once per task and stays
    // L1-hot across the strips, instead of streaming the whole packed panel
    // once per strip.
    auto ap = ScratchArena::buffer(ScratchArena::kGemmPackA,
                                   static_cast<std::size_t>(strips * k * mr));
    for (std::int64_t s = 0; s < strips; ++s) {
      pack_a_strip<V>(a, m, k, i_begin + s * mr, mr, ap.data() + s * k * mr);
    }
    const std::int64_t t_packed = traced ? trace::now_us() : 0;
    for (std::int64_t jr = 0; jr < nc; jr += nr) {
      const float* panel = bp + (jr / nr) * (k * nr);
      const std::int64_t nr_valid = std::min(nr, nc - jr);
      for (std::int64_t s = 0; s < strips; ++s) {
        const std::int64_t i0 = i_begin + s * mr;
        // Clamp to the task boundary, not just m: tasks own disjoint row
        // ranges, so a strip must never write into the next task's rows.
        const std::int64_t mr_valid = std::min(mr, i_end - i0);
        run_micro_tile<V>(ap.data() + s * k * mr, panel, c, n, k, i0, jc + jr,
                          mr_valid, nr_valid, beta, kernel);
      }
    }
    if (traced) {
      static counters::Counter& pack_us = counters::counter("gemm.pack_us");
      static counters::Counter& kernel_us = counters::counter("gemm.kernel_us");
      pack_us.add(static_cast<std::uint64_t>(t_packed - t_start));
      kernel_us.add(static_cast<std::uint64_t>(trace::now_us() - t_packed));
    }
  };

  if (tasks >= 2 && m * k * n >= kParallelFlopThreshold &&
      !ParallelExecutor::in_parallel_region()) {
    ParallelExecutor::current().parallel_for(
        static_cast<std::size_t>(tasks), [&](std::size_t task, std::size_t) {
          task_body(static_cast<std::int64_t>(task));
        });
  } else {
    for (std::int64_t task = 0; task < tasks; ++task) task_body(task);
  }
}

// Interned span name for a (op, n) shape class.  Traced paths only; the
// one-entry memo makes the common case (repeated calls of one shape per
// layer) lock-free after the first intern.
const char* traced_shape_name(GemmOp op, std::int64_t n) {
  struct Memo {
    GemmOp op = GemmOp::kNN;
    std::int64_t n = -1;
    const char* name = nullptr;
  };
  thread_local Memo memo;
  if (memo.name == nullptr || memo.op != op || memo.n != n) {
    memo = {op, n, trace::intern(gemm_shape_class(op, n))};
  }
  return memo.name;
}

// The one entry behind gemm()/gemm_nt()/gemm_tn(): the callers check the
// operand sizes, the kernel is the process-wide selection.
void gemm_run(GemmOp op, const float* a, const float* b, float* c,
              std::int64_t m, std::int64_t k, std::int64_t n, float beta) {
  static counters::Counter& calls = counters::counter("gemm.calls");
  calls.add(1);
  // Span name = shape class, so Perfetto's aggregation view groups GEMM
  // time by operand layout and output width; the kernel variant is
  // process-constant and rides along as a string arg.
  trace::TraceSpan span(trace::enabled() ? traced_shape_name(op, n) : "gemm",
                        "gemm");
  span.sarg("variant", gemm_runtime_info().variant.c_str());
  span.arg("flops", 2 * m * k * n);
  const GemmKernel& kernel = gemm_runtime_config();
  switch (op) {
    case GemmOp::kNN: blocked_gemm<GemmOp::kNN>(a, b, c, m, k, n, beta, kernel); return;
    case GemmOp::kNT: blocked_gemm<GemmOp::kNT>(a, b, c, m, k, n, beta, kernel); return;
    case GemmOp::kTN: blocked_gemm<GemmOp::kTN>(a, b, c, m, k, n, beta, kernel); return;
  }
}

}  // namespace

void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          std::int64_t m, std::int64_t k, std::int64_t n, float beta) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(a.size()) >= m * k);
  FEDHISYN_CHECK(static_cast<std::int64_t>(b.size()) >= k * n);
  FEDHISYN_CHECK(static_cast<std::int64_t>(c.size()) >= m * n);
  gemm_run(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, beta);
}

void gemm_nt(std::span<const float> a, std::span<const float> b, std::span<float> c,
             std::int64_t m, std::int64_t k, std::int64_t n, float beta) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(a.size()) >= m * k);
  FEDHISYN_CHECK(static_cast<std::int64_t>(b.size()) >= n * k);
  FEDHISYN_CHECK(static_cast<std::int64_t>(c.size()) >= m * n);
  gemm_run(GemmOp::kNT, a.data(), b.data(), c.data(), m, k, n, beta);
}

void gemm_tn(std::span<const float> a, std::span<const float> b, std::span<float> c,
             std::int64_t m, std::int64_t k, std::int64_t n, float beta) {
  FEDHISYN_CHECK(static_cast<std::int64_t>(a.size()) >= k * m);
  FEDHISYN_CHECK(static_cast<std::int64_t>(b.size()) >= k * n);
  FEDHISYN_CHECK(static_cast<std::int64_t>(c.size()) >= m * n);
  gemm_run(GemmOp::kTN, a.data(), b.data(), c.data(), m, k, n, beta);
}

}  // namespace fedhisyn
