// ExperimentSpec: one value type capturing everything a grid cell needs —
// what to build (dataset, scale, partition, fleet, model, seed), what to run
// (method, FlOptions) and how to measure it (rounds, target, eval cadence).
//
// A spec is plain data: copying it is cheap, expanding a grid produces a
// vector of them, and a cell's entire computation is a deterministic
// function of its spec — which is what lets the dispatch backends run cells
// in worker processes, concurrently, with results bit-identical to a serial
// sweep.
#pragma once

#include <cstdint>
#include <string>

#include "core/options.hpp"
#include "core/presets.hpp"

namespace fedhisyn::json {
struct Value;
}

namespace fedhisyn::exp {

/// Compact locale-independent float rendering ("%g") shared by spec
/// labels/keys and the result sinks, so keys and serialised output can never
/// disagree on a value's spelling.
std::string fmt_g(double value);

struct ExperimentSpec {
  /// What to build: dataset, scale (devices/samples/rounds), partition,
  /// fleet kind, model choice, build seed.
  core::BuildConfig build;
  /// Which algorithm to run (a registry name, see --list-methods).
  std::string method = "FedHiSyn";
  /// Hyper-parameters handed to the algorithm.
  core::FlOptions opts;
  /// Target accuracy for the rounds-to-target metric; <= 0 resolves to the
  /// per-suite default core::target_accuracy(dataset) at run time.
  float target = 0.0f;
  /// Evaluate every N rounds (the final round is always evaluated).
  int eval_every = 1;

  /// Set the build seed and the algorithm seed together (the drivers always
  /// keep them identical).
  ExperimentSpec& with_seed(std::uint64_t seed);

  /// Target with the <=0 sentinel resolved: the per-suite default.
  float resolved_target() const;

  /// Display label of the partition axis value: "IID" or "Dirichlet(0.3)".
  std::string partition_label() const;

  /// Short human-readable cell id, stable across runs:
  /// "mnist/Dirichlet(0.3)/p50/FedHiSyn/s101".
  std::string label() const;

  /// Canonical key of the fields that determine what build_experiment()
  /// produces.  Cells sharing a build_key can share one BuiltExperiment
  /// (GridScheduler dedups builds on it).
  std::string build_key() const;

  /// Canonical key of every field that determines the cell's result —
  /// build_key() plus method, hyper-parameters and measurement knobs.  Equal
  /// keys mean byte-identical results; use for dedup and caching.
  std::string to_key() const;

  /// JSON wire codec for process-level dispatch (exp/dispatch.*): one-line
  /// JSON object covering every spec field, floats rendered exactly
  /// ("%.9g"/"%.17g") so from_json(to_json(s)) reproduces s bit-for-bit —
  /// the host-agnostic half of the worker protocol.
  std::string to_json() const;

  /// Strict inverse of to_json(): check-fails on missing or unknown fields
  /// (a field-set mismatch means parent and worker binaries disagree on the
  /// protocol, which must stop the sweep, not corrupt it).
  static ExperimentSpec from_json(const std::string& text);
  /// Same, from an already-parsed JSON object (the worker protocol embeds
  /// the spec inside a request envelope).
  static ExperimentSpec from_json(const json::Value& doc);
};

}  // namespace fedhisyn::exp
