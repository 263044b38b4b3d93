// BuildCache: the shared multi-build BuiltExperiment cache behind every
// execution backend (exp/scheduler.hpp's thread backend in-process, and each
// resident --serve dispatch worker, spawned or remote, on its own side of
// the wire).
//
// Entries are keyed on ExperimentSpec::build_key() and LRU-evicted under a
// byte budget measured by BuiltExperiment::memory_bytes(), so a resident
// worker can hold every build of a sweep warm (a build-interleaved cell
// order no longer thrashes rebuilds, which is what the PR-6 single-entry
// cache did) while worker memory stays bounded.  The budget is explicit
// (Config::max_bytes, resolved by exp::handle_grid_flags).  A budget of 0
// keeps no build resident: each build is accounted and evicted at once, so a
// sequential get() builds every time, and only concurrent same-key callers
// share the one build in flight.  The default, default_budget_bytes(), holds
// the full Table-1 sweep at paper scale.
//
// Concurrency: get() is safe from any number of threads.  Same-key callers
// are deduped on a per-entry once_flag (the first caller builds, the rest
// wait), different keys build concurrently, and the map is mutex-guarded
// with clang thread-safety annotations.  Eviction only drops the cache's
// reference — cells still running on an evicted build keep it alive through
// their shared_ptr.
//
// Determinism: the cache decides *when* a build happens, never what a cell
// computes — a build is a pure function of the spec's build fields, so hit,
// miss and evict sequences cannot reach result bytes.  Outcomes are counted
// only in the process counter registry (build_cache.hits / .misses /
// .evictions, common/counters.hpp), which a dispatch worker ships back as
// per-cell deltas on the wire's `telemetry` block; like
// CellResult::seconds, the JSONL/CSV sinks never see them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/thread_annotations.hpp"
#include "core/presets.hpp"
#include "exp/spec.hpp"

namespace fedhisyn::exp {

class BuildCache {
 public:
  struct Config {
    /// LRU byte budget over BuiltExperiment::memory_bytes(); 0 = no build
    /// stays resident.
    std::size_t max_bytes = 0;
    /// Non-empty: hit/miss/evict lines are printed to stderr prefixed with
    /// this tag (the dispatch workers' serve log).  Empty = silent (the
    /// in-process scheduler).
    std::string log_tag;
  };

  /// The current contents.  Hit, miss and eviction totals live in the
  /// counter registry (build_cache.*), not here.
  struct Stats {
    std::size_t resident_bytes = 0;
    std::size_t resident_builds = 0;
  };

  explicit BuildCache(Config config);

  BuildCache(const BuildCache&) = delete;
  BuildCache& operator=(const BuildCache&) = delete;

  /// The build for `spec`, warm when a build with the same build_key() is
  /// resident, freshly built (and made resident, evicting LRU entries past
  /// the byte budget) otherwise.  `out_hit`, when non-null, receives whether
  /// this call was served without building (a concurrent same-key caller
  /// that waits on the builder counts as a hit — no duplicate build ran).
  std::shared_ptr<const core::BuiltExperiment> get(const ExperimentSpec& spec,
                                                   bool* out_hit = nullptr);

  Stats stats() const;

  /// The configured byte budget (0 = nothing stays resident).
  std::size_t max_bytes() const { return config_.max_bytes; }

  /// The default budget: 512 MiB, comfortably above the ~300 MB the full
  /// Table-1 sweep's builds occupy at paper scale (8 distinct build keys —
  /// 4 datasets x 2 partitions — of up to ~40 MB each, see
  /// docs/ARCHITECTURE.md), so a resident worker holds the whole sweep warm.
  static std::size_t default_budget_bytes();

 private:
  struct Entry {
    std::once_flag once;
    /// Written inside `once`, read only after call_once returns.
    std::shared_ptr<const core::BuiltExperiment> built;
    // The fields below are guarded by the owning cache's mutex_ (annotations
    // cannot name an outer instance member from a nested struct).
    std::size_t bytes = 0;      // 0 until the build completes and is accounted
    std::uint64_t last_use = 0; // recency tick for LRU
    bool resident = true;       // false once evicted (or build failed)
  };

  void evict_past_budget() FEDHISYN_REQUIRES(mutex_);

  const Config config_;
  mutable Mutex mutex_;
  std::uint64_t tick_ FEDHISYN_GUARDED_BY(mutex_) = 0;
  std::map<std::string, std::shared_ptr<Entry>> entries_
      FEDHISYN_GUARDED_BY(mutex_);
  std::size_t resident_bytes_ FEDHISYN_GUARDED_BY(mutex_) = 0;
};

}  // namespace fedhisyn::exp
