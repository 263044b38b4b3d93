#include "exp/build_cache.hpp"

#include <cstdio>
#include <utility>

#include "common/counters.hpp"
#include "common/trace.hpp"

namespace fedhisyn::exp {

namespace {

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// The one record of cache outcomes: every BuildCache instance adds into one
// process-wide set of names, so --metrics-out reports cache behaviour
// whichever backend (thread pool, worker process) owned the cache.
counters::Counter& hit_counter() {
  static counters::Counter& counter = counters::counter("build_cache.hits");
  return counter;
}

counters::Counter& miss_counter() {
  static counters::Counter& counter = counters::counter("build_cache.misses");
  return counter;
}

counters::Counter& eviction_counter() {
  static counters::Counter& counter =
      counters::counter("build_cache.evictions");
  return counter;
}

}  // namespace

BuildCache::BuildCache(Config config) : config_(std::move(config)) {}

std::size_t BuildCache::default_budget_bytes() {
  return std::size_t{512} * 1024 * 1024;
}

std::shared_ptr<const core::BuiltExperiment> BuildCache::get(
    const ExperimentSpec& spec, bool* out_hit) {
  const std::string key = spec.build_key();
  std::shared_ptr<Entry> entry;
  bool hit = false;
  {
    MutexLock lock(mutex_);
    auto& slot = entries_[key];
    hit = slot != nullptr;
    if (!hit) slot = std::make_shared<Entry>();
    entry = slot;
    entry->last_use = ++tick_;
  }
  (hit ? hit_counter() : miss_counter()).add(1);
  // The miss line prints *before* the build so a warm-up phase that takes
  // tens of seconds is visibly building, not hung.
  if (!config_.log_tag.empty()) {
    std::fprintf(stderr, "%s: build %s %s\n", config_.log_tag.c_str(),
                 hit ? "hit" : "miss", key.c_str());
  }

  // The build runs outside mutex_ (different keys must build concurrently);
  // the entry's once_flag serialises same-key callers onto one build.
  bool built_here = false;
  try {
    std::call_once(entry->once, [&] {
      trace::TraceSpan span("build", "build_cache");
      entry->built = core::build_experiment(spec.build);
      built_here = true;
    });
  } catch (...) {
    // A failed build must not poison the key: drop the entry so the next
    // caller retries from scratch.  (If this entry was already evicted the
    // key may hold a fresh entry — the resident flag keeps it safe.)
    MutexLock lock(mutex_);
    if (entry->resident) {
      entry->resident = false;
      entries_.erase(key);
    }
    throw;
  }

  if (built_here) {
    MutexLock lock(mutex_);
    // Skip the accounting if eviction already dropped this entry while it
    // was building (possible when another build finished first and blew the
    // budget): the shared_ptr still hands the build to its callers, the
    // cache just never owned it.
    if (entry->resident) {
      entry->bytes = entry->built->memory_bytes();
      resident_bytes_ += entry->bytes;
      if (!config_.log_tag.empty()) {
        std::fprintf(stderr,
                     "%s: build done %s: %.1f MiB (cache: %zu build(s) "
                     "resident, %.1f / %.1f MiB)\n",
                     config_.log_tag.c_str(), key.c_str(), mib(entry->bytes),
                     entries_.size(), mib(resident_bytes_),
                     mib(config_.max_bytes));
      }
      evict_past_budget();
    }
  }
  if (out_hit != nullptr) *out_hit = hit;
  return entry->built;
}

void BuildCache::evict_past_budget() {
  while (resident_bytes_ > config_.max_bytes) {
    // O(n) LRU scan: n is the number of distinct builds resident (single
    // digits for every sweep in this repo), so a linked-list LRU would buy
    // nothing.  In-flight entries (bytes still 0) are skipped — they are not
    // accounted yet, so evicting them could not reduce resident_bytes_.
    auto lru = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second->bytes == 0) continue;
      if (lru == entries_.end() ||
          it->second->last_use < lru->second->last_use) {
        lru = it;
      }
    }
    if (lru == entries_.end()) return;
    Entry& victim = *lru->second;
    resident_bytes_ -= victim.bytes;
    victim.resident = false;
    eviction_counter().add(1);
    if (!config_.log_tag.empty()) {
      std::fprintf(stderr, "%s: build evict %s: freed %.1f MiB (LRU, budget %.1f MiB)\n",
                   config_.log_tag.c_str(), lru->first.c_str(),
                   mib(victim.bytes), mib(config_.max_bytes));
    }
    entries_.erase(lru);
  }
}

BuildCache::Stats BuildCache::stats() const {
  MutexLock lock(mutex_);
  Stats stats;
  stats.resident_bytes = resident_bytes_;
  stats.resident_builds = entries_.size();
  return stats;
}

}  // namespace fedhisyn::exp
