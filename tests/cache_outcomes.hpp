// Test helper: build-cache outcomes as the counter registry records them
// (build_cache.hits / .misses / .evictions, common/counters.hpp) — the one
// place BuildCache counts them, whichever backend owned the cache.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.hpp"

namespace fedhisyn::exp {

struct CacheOutcomes {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// The build_cache.* entries of a counters::delta() — a dispatched cell's
/// CellResult::telemetry.counters, or the registry's movement over a run.
inline CacheOutcomes cache_outcomes(
    const std::vector<std::pair<std::string, std::uint64_t>>& deltas) {
  CacheOutcomes outcomes;
  for (const auto& [name, value] : deltas) {
    if (name == "build_cache.hits") outcomes.hits = value;
    if (name == "build_cache.misses") outcomes.misses = value;
    if (name == "build_cache.evictions") outcomes.evictions = value;
  }
  return outcomes;
}

/// The outcomes this process's registry counted since the `before`
/// snapshot: cache calls made in-process, plus the deltas a dispatcher
/// folded in from its workers.
inline CacheOutcomes cache_outcomes_since(
    const std::map<std::string, std::uint64_t>& before) {
  return cache_outcomes(counters::delta(before, counters::snapshot()));
}

}  // namespace fedhisyn::exp
