// The intra-round ring-circulation engine implementing Alg. 1 lines 5-16.
//
// Given a participant set already grouped into classes with a ring per class,
// the engine runs the virtual-time interval [0, R): every device repeatedly
// trains a local-training job on the model at the back of its buffer; on
// completion it forwards the trained model to its ring successor and starts
// training the most recently received model (or keeps refining its own if
// nothing arrived — Eq. (7)).  Jobs that would overrun R are not started.
//
// Execution is parallel and deterministic.  Virtual-time job durations depend
// only on the fleet profile, never on training output, so the engine first
// replays the event timeline symbolically — producing a RoundGraph of
// training jobs whose edges are "device continues its own model" and "model
// forwarded along the ring" — and then hands the graph to the shared
// RoundGraphExecutor (core/round_graph.hpp), which starts each job on the
// ParallelExecutor pool as soon as its input model exists.  Each job draws from its own seeded Rng
// stream (derived from the caller's rng and the job's event order), so
// results are bit-identical for any thread count.
//
// Used by FedHiSynAlgo (with server aggregation on top) and by the
// decentralised modes behind Figs. 3 and 4 (no server).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/options.hpp"
#include "core/trainer.hpp"
#include "sim/events.hpp"
#include "sim/ring.hpp"

namespace fedhisyn::core {

struct RingEngineResult {
  /// device_models[d] = device d's latest completed model (indexed by device
  /// id; untouched devices keep their input model).
  std::vector<std::vector<float>> device_models;
  /// Number of completed training jobs per device this interval.
  std::vector<std::int64_t> jobs_completed;
  /// Total device-to-device model transfers this interval.
  std::int64_t hops = 0;
};

class RingEngine {
 public:
  explicit RingEngine(const FlContext& ctx);

  /// Run one interval of duration `interval` over the given rings.
  /// `initial_models[d]` seeds device d's buffer (only participants are
  /// read).  `participants` must be the union of all ring members.
  /// When `direct_use` is false, a received model is first averaged with the
  /// device's own latest model before training (the Observation-1 ablation).
  /// Consumes exactly one draw from `rng` (the base of the per-job streams),
  /// regardless of how many jobs run.  Jobs train on the current pool, each
  /// thread in the trainer's thread_local buffers.
  RingEngineResult run_interval(const std::vector<sim::RingTopology>& rings,
                                const std::vector<std::size_t>& participants,
                                std::vector<std::vector<float>> initial_models,
                                double interval, Rng& rng);

 private:
  const FlContext& ctx_;
};

}  // namespace fedhisyn::core
