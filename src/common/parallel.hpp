// ParallelExecutor: the library-wide worker pool behind every parallel loop
// (per-device local training, round-DAG workers, fleet evaluation).
//
// Design rules that every caller relies on:
//   * One level of parallelism: the pool runs training jobs (and evaluation
//     chunks), never a kernel's tiles.  GEMM, conv, the optimizer steps and
//     the vector plane run serially on the calling thread; the loop over
//     jobs already keeps every thread busy.
//   * Determinism is the caller's contract: a body invoked for index i must
//     depend only on i (plus per-index seeded Rng streams), never on which
//     thread runs it or in which order indices complete.  Under that contract
//     a 1-thread run and an N-thread run are bit-identical.
//   * The caller thread runs indices alongside the pool workers.  Per-thread
//     scratch is thread_local, owned by the module that uses it (ScratchArena
//     here, the trainer's and the evaluator's buffers in core/ and nn/), so a
//     body receives only its index and callers pass no scratch around.
//   * Nested parallel_for calls (e.g. a fleet evaluation inside a parallel
//     device loop) execute inline on the calling thread — no deadlock, no
//     oversubscription.
//
// Thread count resolution: FEDHISYN_THREADS env var when set to a positive
// integer, otherwise std::thread::hardware_concurrency().  Programs can
// override at runtime with set_thread_count() (the --threads flag of the CLI
// and benches); tests drop to 1 thread to compare against parallel runs.
// Every size is check-failed above kMaxThreads before a thread starts.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace fedhisyn {

/// Thread-local aligned scratch buffers for the hot kernels (GEMM B-panel
/// packing, conv im2col columns).  Buffers live for the thread's lifetime and
/// grow monotonically, so steady-state kernel calls never allocate.  This is
/// the one per-thread scratch policy of the library: the trainer's step
/// buffers (core/trainer.cpp) and the evaluator's workspace (nn/network.cpp)
/// are thread_local in the same way, and outlive a cell and a network.
///
/// Each named buffer is independent: a kernel may hold several live at once
/// (conv holds its column buffers while the nested GEMM packs panels).  A
/// buffer's contents are invalidated by the next `buffer()` call for the same
/// name on the same thread — borrow, fill, use, and don't stash the span.
/// Being thread-local, the arena needs no locking and works unchanged on any
/// executor a thread serves.
class ScratchArena {
 public:
  enum Buf : std::size_t {
    kGemmPackB = 0,       // packed op(B) NR-wide sub-panels (k x NC; A is never packed)
    kConvColumns = 1,     // im2col column matrix
    kConvGradColumns = 2, // conv backward column-gradient matrix
    kConvPadded = 3,      // im2col/col2im zero-bordered [C, H+2p, W+2p] plane
    kConvFilterGradT = 4, // conv backward filter gradient, transposed [C*K*K, OC]
    kBufferCount = 5,
  };

  /// The calling thread's buffer `which`, grown to hold >= `floats` floats,
  /// 64-byte aligned.  Contents of a freshly grown buffer are unspecified.
  static std::span<float> buffer(Buf which, std::size_t floats);
};

class ParallelExecutor {
 public:
  using Body = std::function<void(std::size_t index)>;

  /// Largest pool a constructor or set_thread_count() accepts: a typo in
  /// --threads or FEDHISYN_THREADS must not start millions of OS threads.
  static constexpr std::size_t kMaxThreads = 1024;

  /// threads == 0 resolves via threads_from_env().  Check-fails above
  /// kMaxThreads.
  explicit ParallelExecutor(std::size_t threads = 0);
  ~ParallelExecutor();
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Threads that run a pooled loop (pool workers + the participating caller).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Resize the pool (clamped to >= 1).  Must not be called while a
  /// parallel_for on this executor is in flight.  Check-fails above
  /// kMaxThreads, leaving the pool as it was.
  void set_thread_count(std::size_t threads);

  /// Invoke body(i) once for every i in [0, n).  Blocks until all
  /// indices complete; the first exception thrown by a body is rethrown on
  /// the caller after the loop drains.  Safe to call with n == 0.
  ///
  /// One top-level dispatch at a time: the pool has a single job slot, so
  /// concurrent parallel_for calls from *different* threads on the same
  /// executor are rejected (throws).  Nested calls from inside a body are
  /// fine (they run inline); fan out over items, not over callers.
  void parallel_for(std::size_t n, const Body& body);

  /// FEDHISYN_THREADS if set to a positive integer, else hardware
  /// concurrency (at most kMaxThreads), else 1.  A FEDHISYN_THREADS above
  /// kMaxThreads is returned as is and rejected by the pool it would size.
  static std::size_t threads_from_env();

  /// The process-wide pool used by the library's algorithms.
  static ParallelExecutor& global();

  /// The executor the calling thread should dispatch on: the innermost
  /// Bind on this thread, or global() when none is bound.  Algorithms fan
  /// out on current(), so a caller can size the pool they run on (tests and
  /// bench_round_throughput bind a private pool of N threads).
  static ParallelExecutor& current();

  /// RAII thread-local override of current() for the calling thread.  Bind
  /// an executor for the duration of a scope; restores the previous binding
  /// (or global()) on destruction.  The binding is per-thread: it does not
  /// propagate to threads spawned inside the scope.
  class Bind {
   public:
    explicit Bind(ParallelExecutor& executor);
    ~Bind();
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    ParallelExecutor* previous_;
  };

 private:
  void worker_loop();
  void run_span(const Body& body, std::size_t n);
  void start_workers(std::size_t threads) FEDHISYN_EXCLUDES(mutex_);
  void stop_workers() FEDHISYN_EXCLUDES(mutex_);

  /// Structural state: mutated only by start_workers/stop_workers, which the
  /// API forbids calling concurrently with a parallel_for (workers are
  /// joined before the vector changes), so it needs no guard.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  /// condition_variable_any so the annotated Mutex can be waited on
  /// directly; guarded reads in wait loops stay visible to the analysis.
  std::condition_variable_any cv_work_;
  std::condition_variable_any cv_done_;
  /// Job clock: bumped once per dispatched parallel_for; a worker whose
  /// `seen` lags behind has a job waiting.
  std::uint64_t generation_ FEDHISYN_GUARDED_BY(mutex_) = 0;
  bool stop_ FEDHISYN_GUARDED_BY(mutex_) = false;
  const Body* body_ FEDHISYN_GUARDED_BY(mutex_) = nullptr;
  std::size_t job_n_ FEDHISYN_GUARDED_BY(mutex_) = 0;
  std::atomic<std::size_t> next_{0};  // index claim counter, lock-free
  std::size_t active_workers_ FEDHISYN_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ FEDHISYN_GUARDED_BY(mutex_);
  /// Guards the single top-level job slot.
  bool dispatching_ FEDHISYN_GUARDED_BY(mutex_) = false;
};

}  // namespace fedhisyn
