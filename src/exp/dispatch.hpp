// Process- and host-level grid dispatch: one crash-isolated worker fleet
// behind GridScheduler's CellBackend seam (--dispatch=process|tcp).
//
// Every dispatch worker is a `--serve [bind:]port` process (every grid
// driver reaches it through exp::handle_grid_flags), and every link to one
// is a TCP socket, so there is one dispatcher, TcpDispatcher, with two
// worker sources: `spawn` N `<this binary> --serve 127.0.0.1:0` children
// (the process backend — the coordinator reads each child's port from its
// announce line and connects over loopback), or connect to the `hosts`
// someone else started, on any machine (the tcp backend).  The wire codec
// never assumed shared memory, a filesystem or a machine, so the two
// sources differ only in where a slot's worker comes from.
//
// One dispatch loop serves both: cells travel as one line of JSON
// (ExperimentSpec::to_json), results come back as one line of JSON, the
// parent collects in spec order — so the serial thread backend, --dispatch
// process at any --grid-jobs N and --dispatch tcp write byte-identical
// output files.
//
// The dispatcher reads no environment: its caller resolves every knob
// (exp::handle_grid_flags for the grid drivers) and passes it in Options.
//
// Failure handling (same accounting for both sources):
//   * crash — a worker that segfaults/OOMs or drops its connection
//     mid-cell: the cell is retried, up to `max_attempts` total tries
//     (default 3).  A spawned slot gets a fresh child; a host is
//     reconnected once.
//   * hang — with `cell_timeout_s` set, a worker that exceeds the per-cell
//     deadline is SIGKILLed (spawned) or disconnected (host) and the cell
//     retried exactly like a crash.  Default: no deadline.
//   * dead host — a host whose connection cannot be re-established (or a
//     child that never announces its port) is retired; its cell is
//     reassigned to the remaining workers.
//   * deterministic failure — the worker replies ok:false (e.g. an unknown
//     method): rethrown in the parent without retry, like the thread
//     backend.
//   * dead coordinator — spawned children carry PR_SET_PDEATHSIG (see
//     common/subprocess.hpp), so a coordinator killed mid-sweep leaves no
//     worker listening behind it.
//
// Wire protocol (one JSON object per line, floats exact via %.9g/%.17g;
// every line is capped at net::kMaxLineBytes):
//   worker -> parent  {"hello":"fedhisyn-worker","proto":kWireRevision}
//                                                              (on connect)
//   parent -> worker  {"attempt":A,"trace":0|1,"spec":{...}}
//   worker -> parent  {"ok":true,"seconds":S,
//                      "telemetry":{"dropped":D,"spans":[...],
//                                   "counters":{...}},
//                      "algorithm":"...","final":F,
//                      "best":B,"comm":C|null,"rounds_to_target":R|null,
//                      "history":[[round,acc,comm,d2d],...]}
//   worker -> parent  {"ok":false,"error":"..."}
// The hello line lets the coordinator reject a non-worker endpoint, or a
// worker of another wire revision (`proto`, bumped on every line-format
// change), instead of feeding specs into the void, and delays dispatch to a
// freshly (re)connected worker until it is actually serving — a reconnect
// to a wedged host parks until the host recovers instead of eating retries.
// Every request field is required.  The `telemetry` block carries the
// cell's counter deltas, its build-cache hit or miss among them
// (build_cache.*, see exp/build_cache.hpp), which the coordinator adds into
// its own registry; like `seconds` it lands in CellResult but never in the
// result sinks, so output files stay byte-identical warm vs cold.
//
// Build affinity: when several cells are pending, the coordinator prefers
// handing a worker the earliest pending cell whose build_key() matches the
// worker's previous cell (its cache holds that build resident), falling
// back to strict spec order.  Assignment order is a scheduling detail;
// collection stays in spec index order, so output bytes are unaffected.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/scheduler.hpp"

namespace fedhisyn::exp {

/// Revision of the wire protocol, sent as the hello's `proto` and checked
/// before any work is fed: bump it on every change to a request or response
/// line, so a stale worker is turned away at hello instead of failing deep
/// inside response parsing.  2: responses carry the required `cache` and
/// `telemetry` blocks.  3: the spec JSON lost its round-engine mode field.
/// 4: responses lost the `cache` block, and requests must carry `trace`.
inline constexpr long kWireRevision = 4;

/// The grid's worker fleet: one slot per worker, fed by one poll loop with
/// one retry/timeout/ordering discipline.  Workers come from exactly one
/// source, `hosts` or `spawn`; the walkthrough in README "Multi-host grids"
/// starts two hosts on localhost.
class TcpDispatcher {
 public:
  struct Options {
    /// Running `--serve` workers ("host:port"; bare "port" = 127.0.0.1),
    /// one slot each.  A host whose connection drops is reconnected once,
    /// then retired and its cells reassigned.
    std::vector<std::string> hosts;
    /// Local `--serve 127.0.0.1:0` children to spawn (the running binary,
    /// current_executable_path()), clamped to the number of cells; a child
    /// that dies is respawned.
    std::size_t spawn = 0;
    /// "KEY=VALUE" overrides on each spawned child's inherited environment
    /// (its thread slice and worker knobs).  A host reads its own.
    std::vector<std::string> spawn_env;
    /// Total tries per cell before the sweep fails.
    int max_attempts = 3;
    /// Per-cell deadline in seconds; 0 disables.  A worker past the
    /// deadline is SIGKILLed (spawned) or disconnected (host) and the cell
    /// retried under the same accounting as a crash.
    double cell_timeout_s = 0.0;
    /// Initial connects to `hosts` are retried until this budget elapses
    /// (workers may still be starting); a *re*connect after a death gets
    /// one try.
    double connect_timeout_s = 10.0;
    /// Per-finished-cell callback, (done, total, cell), completion order.
    std::function<void(std::size_t, std::size_t, const CellResult&)> on_cell;
  };

  /// Check-fails unless exactly one worker source is set and
  /// max_attempts >= 1.
  explicit TcpDispatcher(Options options);

  /// Run every spec on the worker fleet (spawned children are killed
  /// afterwards); results[i] corresponds to specs[i].  Check-fails when no
  /// worker can be reached at all, or when every worker dies with cells
  /// still outstanding.
  std::vector<CellResult> run(const std::vector<ExperimentSpec>& specs) const;

 private:
  Options options_;
};

/// Entry point of --serve [bind:]port: announce the bound endpoint on stdout
/// as "fedhisyn-serve: listening on <host>:<port>", then accept coordinator
/// connections one at a time, answering each one's cell requests until the
/// peer disconnects.  The worker is resident: its multi-build LRU cache
/// (exp/build_cache.hpp, budget from `config`) survives across connections,
/// so consecutive sweeps over the same builds skip every rebuild.  Runs
/// until killed.
int serve_main(const std::string& bind_spec, const WorkerConfig& config);
/// The same, with `config` resolved from the environment alone.
int serve_main(const std::string& bind_spec);

}  // namespace fedhisyn::exp
