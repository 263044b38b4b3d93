// Common interface of all FL algorithms.  One call to run_round() advances
// one aggregation interval (the paper's "round": the wall-clock span R in
// which the slowest device finishes one local-training job).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/options.hpp"
#include "core/round_graph.hpp"
#include "core/trainer.hpp"
#include "nn/network.hpp"
#include "sim/comm.hpp"
#include "sim/events.hpp"

namespace fedhisyn::core {

/// The order to hand jobs of the given costs to parallel_for in: longest job
/// first (descending cost, ties by ascending index).  The pool starts jobs
/// in the order given, so a long job no longer starts last and runs alone.
/// Results still land by job index and are combined in index order, so the
/// order shortens the makespan without moving a byte.
std::vector<std::size_t> longest_job_first(std::span<const std::int64_t> costs);

class FlAlgorithm {
 public:
  explicit FlAlgorithm(const FlContext& ctx);
  virtual ~FlAlgorithm() = default;
  FlAlgorithm(const FlAlgorithm&) = delete;
  FlAlgorithm& operator=(const FlAlgorithm&) = delete;

  virtual std::string name() const = 0;
  /// Execute one aggregation interval (train + communicate + aggregate).
  virtual void run_round() = 0;

  /// The server's current global model.  Decentralised modes (no server)
  /// return the mean of the device models.
  virtual std::span<const float> global_weights() const { return global_; }

  /// Test accuracy of the algorithm's output model.  Default: global model
  /// accuracy on fed->test; decentralised modes override with the mean
  /// per-device accuracy (what Figs. 2-4 plot).
  virtual float evaluate_test_accuracy();

  const sim::CommTracker& comm() const { return comm_; }
  const FlContext& context() const { return ctx_; }
  int rounds_completed() const { return rounds_completed_; }

  /// Execution statistics of the most recent RoundGraph-driven round (the
  /// event-driven async methods).  Zero-initialised for methods that do not
  /// run on the graph engine.  Stats are informational — they may vary with
  /// the thread count even though results never do.
  const RoundGraphStats& last_round_stats() const { return last_round_stats_; }

 protected:
  /// Virtual duration of one round: the slowest fleet device's local-training
  /// job (paper §6.1's definition of a round).
  double round_duration() const;
  /// Draw this round's participant set.
  std::vector<std::size_t> draw_participants();
  /// Local SGD steps of one job: epochs x ceil(shard size / batch size).
  std::int64_t local_steps(std::size_t device, int epochs) const;

  /// Rng stream for one local-training job, keyed on (seed, round, device,
  /// event sequence).  `round_mult`/`device_mult` are per-algorithm salts so
  /// different methods never share streams.
  Rng job_stream(std::uint64_t round_mult, std::uint64_t device_mult,
                 std::size_t device, std::uint64_t sequence) const;
  /// The seed behind job_stream, for jobs recorded in a RoundGraph.
  std::uint64_t job_stream_seed(std::uint64_t round_mult, std::uint64_t device_mult,
                                std::size_t device, std::uint64_t sequence) const;

  /// One round of the fully-asynchronous server protocol shared by TAFedAvg
  /// and FedAsync: every participant loops download-train-upload inside the
  /// round interval, and the server mixes each upload into the global model
  /// the moment it arrives.  The round's event timeline is replayed
  /// symbolically (durations depend only on the fleet profile), compiled
  /// into a RoundGraph whose serial commit chain carries the server mixes,
  /// and executed by ready counts — byte-identical at any thread count.
  /// `mix_alpha(staleness)` is the server mixing rate for an upload whose
  /// download happened `staleness` server versions ago.  Advances
  /// rounds_completed_; the number of uploads is the returned stats.jobs.
  RoundGraphStats run_async_round(
      std::uint64_t round_mult, std::uint64_t device_mult,
      const std::function<float(std::int64_t)>& mix_alpha);

  FlContext ctx_;
  std::vector<float> global_;
  sim::CommTracker comm_;
  Rng rng_;
  int rounds_completed_ = 0;
  RoundGraphStats last_round_stats_;

 private:
  /// The one local-training invocation every async job goes through, so no
  /// job can diverge from another on hyper-parameters (the byte-identity
  /// contract depends on it).
  void run_async_job(std::size_t device, int epochs, Rng rng, std::span<float> model);
};

}  // namespace fedhisyn::core
