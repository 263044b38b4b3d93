#include "common/parallel.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/trace.hpp"

namespace fedhisyn {

namespace {
thread_local bool tl_in_parallel = false;
thread_local ParallelExecutor* tl_current = nullptr;

struct AlignedScratch {
  float* data = nullptr;
  std::size_t capacity = 0;

  ~AlignedScratch() {
    ::operator delete[](data, std::align_val_t{64});
  }

  float* grow_to(std::size_t floats) {
    if (capacity < floats) {
      ::operator delete[](data, std::align_val_t{64});
      // Grow by at least 1.5x so a sequence of slightly-larger requests
      // (conv layers of increasing size) settles quickly.
      std::size_t next = capacity + capacity / 2;
      if (next < floats) next = floats;
      data = static_cast<float*>(
          ::operator new[](next * sizeof(float), std::align_val_t{64}));
      capacity = next;
    }
    return data;
  }
};

thread_local AlignedScratch tl_scratch[ScratchArena::kBufferCount];
}  // namespace

std::span<float> ScratchArena::buffer(Buf which, std::size_t floats) {
  return {tl_scratch[which].grow_to(floats), floats};
}

namespace {
/// Check-fails on a pool size above the cap before any worker is touched;
/// `source` names where the size came from.
void check_thread_count(std::size_t threads, const char* source) {
  FEDHISYN_CHECK_MSG(threads <= ParallelExecutor::kMaxThreads,
                     "a pool of " << threads << " threads" << source
                                  << " exceeds the cap of "
                                  << ParallelExecutor::kMaxThreads);
}
}  // namespace

ParallelExecutor::ParallelExecutor(std::size_t threads) {
  const bool from_env = threads == 0;
  if (from_env) threads = threads_from_env();
  check_thread_count(threads, from_env ? " (FEDHISYN_THREADS)" : "");
  start_workers(threads);
}

ParallelExecutor::~ParallelExecutor() { stop_workers(); }

void ParallelExecutor::start_workers(std::size_t threads) {
  if (threads < 1) threads = 1;
  {
    // Workers begin with seen == 0; restart the generation clock so a pool
    // resized after running jobs doesn't hand new workers a phantom stale job.
    MutexLock lock(mutex_);
    generation_ = 0;
  }
  workers_.reserve(threads - 1);
  for (std::size_t w = 1; w < threads; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ParallelExecutor::stop_workers() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  {
    MutexLock lock(mutex_);
    stop_ = false;
  }
}

void ParallelExecutor::set_thread_count(std::size_t threads) {
  check_thread_count(threads, "");
  stop_workers();
  start_workers(threads);
}

void ParallelExecutor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const Body* body = nullptr;
    std::size_t n = 0;
    {
      // Explicit wait loop (not the predicate overload): the analysis can
      // see the guarded reads happen under the lock this way.
      MutexLock lock(mutex_);
      while (!stop_ && generation_ == seen) cv_work_.wait(mutex_);
      if (stop_) return;
      seen = generation_;
      body = body_;
      n = job_n_;
    }
    run_span(*body, n);
    {
      MutexLock lock(mutex_);
      if (--active_workers_ == 0) cv_done_.notify_all();
    }
  }
}

void ParallelExecutor::run_span(const Body& body, std::size_t n) {
  const bool was_in_parallel = tl_in_parallel;
  tl_in_parallel = true;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    try {
      body(i);
    } catch (...) {
      MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
  tl_in_parallel = was_in_parallel;
}

void ParallelExecutor::parallel_for(std::size_t n, const Body& body) {
  if (n == 0) return;
  // Inline execution matches the pooled contract: drain every index, then
  // rethrow the first exception — so exceptional runs see the same side
  // effects for any thread count.
  const auto run_inline = [&] {
    std::exception_ptr first;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  };
  // Nested loops run inline on the current thread, so a body that itself
  // calls parallel_for can never deadlock on the pool it is running on.
  if (tl_in_parallel) {
    run_inline();
    return;
  }
  // Top-level but effectively serial: run on the caller.  The region flag
  // stays clear, so a parallel_for inside the single body may still use the
  // pool.
  if (workers_.empty() || n == 1) {
    run_inline();
    return;
  }
  // Only pooled top-level batches get a span: nested and serial calls run
  // inline above and would flood the trace with sub-microsecond events.
  trace::TraceSpan span("parallel_for", "pool");
  span.arg("n", static_cast<std::int64_t>(n));
  span.arg("workers", static_cast<std::int64_t>(workers_.size()));
  {
    MutexLock lock(mutex_);
    if (dispatching_) {
      throw std::logic_error(
          "ParallelExecutor::parallel_for: concurrent top-level dispatch from "
          "another thread — the pool has one job slot (nested calls are fine)");
    }
    dispatching_ = true;
    body_ = &body;
    job_n_ = n;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    active_workers_ = workers_.size();
    ++generation_;
  }
  cv_work_.notify_all();
  run_span(body, n);
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (active_workers_ != 0) cv_done_.wait(mutex_);
    error = error_;
    error_ = nullptr;
    body_ = nullptr;
    dispatching_ = false;
  }
  if (error) std::rethrow_exception(error);
}

std::size_t ParallelExecutor::threads_from_env() {
  const long from_env = env_long("FEDHISYN_THREADS", 0);
  if (from_env > 0) return static_cast<std::size_t>(from_env);
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? std::min<std::size_t>(hardware, kMaxThreads) : 1;
}

ParallelExecutor& ParallelExecutor::global() {
  static ParallelExecutor executor;
  return executor;
}

ParallelExecutor& ParallelExecutor::current() {
  return tl_current != nullptr ? *tl_current : global();
}

ParallelExecutor::Bind::Bind(ParallelExecutor& executor) : previous_(tl_current) {
  tl_current = &executor;
}

ParallelExecutor::Bind::~Bind() { tl_current = previous_; }

}  // namespace fedhisyn
