// Process- and host-level grid dispatch: crash-isolated worker pools behind
// GridScheduler's CellBackend seam (--dispatch=process|tcp /
// FEDHISYN_DISPATCH).
//
// Every dispatch worker is a `--serve [bind:]port` process (every grid
// driver reaches it through exp::handle_grid_flags), and every link to one
// is a TCP socket.  Process backend: the coordinator spawns
// `<this binary> --serve 127.0.0.1:0` children itself, reads each child's
// port from its announce line and connects over loopback.  TCP backend: the
// coordinator connects to workers someone else started, on any machine.
// The wire codec never assumed shared memory, a filesystem or a machine, so
// the two backends differ only in where a slot's worker comes from.
//
// Both backends share one dispatch loop: cells travel as one line of JSON
// (ExperimentSpec::to_json), results come back as one line of JSON, the
// parent collects in spec order — so serial, --grid-jobs N, --dispatch
// process and --dispatch tcp output files are byte-identical.
//
// Failure handling (same accounting in both backends):
//   * crash — a worker that segfaults/OOMs or drops its connection
//     mid-cell: the cell is retried, up to `max_attempts` total tries
//     (1 + FEDHISYN_WORKER_RETRIES; retries default 2, so 3 tries).  The
//     process backend respawns the slot's child; the tcp backend reconnects
//     once.
//   * hang — with FEDHISYN_CELL_TIMEOUT_S set, a worker that exceeds the
//     per-cell deadline is SIGKILLed (process) or disconnected (tcp) and
//     the cell retried exactly like a crash.  Default: no deadline.
//   * dead host — a tcp worker whose connection cannot be re-established
//     (or a child that never announces its port) is retired; its cell is
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
//   worker -> parent  {"hello":"fedhisyn-worker","proto":2}   (on connect)
//   parent -> worker  {"attempt":A,"trace":0|1,"spec":{...}}
//   worker -> parent  {"ok":true,"seconds":S,
//                      "cache":{"hit":true|false,"hits":H,"misses":M,
//                               "evictions":E,"resident_bytes":RB,
//                               "resident_builds":RN},
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
// The `cache` block is the worker's BuildCache observability (this cell's
// hit/miss plus the worker-lifetime counters, see exp/build_cache.hpp);
// like `seconds` it lands in CellResult but never in the result sinks, so
// output files stay byte-identical warm vs cold.
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
inline constexpr long kWireRevision = 3;

/// FEDHISYN_CELL_TIMEOUT_S when set to a positive number of (possibly
/// fractional) seconds, else 0 — meaning "no per-cell deadline".
double cell_timeout_from_env();

class ProcessDispatcher {
 public:
  struct Options {
    /// Concurrent `--serve` children (clamped to the number of cells).
    std::size_t workers = 1;
    /// FEDHISYN_THREADS handed to each worker; 0 = inherit the parent's env.
    std::size_t threads_per_worker = 0;
    /// Total tries per cell before the sweep fails; 0 resolves
    /// 1 + FEDHISYN_WORKER_RETRIES (retries default 2, i.e. 3 tries).
    int max_attempts = 0;
    /// Per-cell deadline in seconds; < 0 resolves FEDHISYN_CELL_TIMEOUT_S,
    /// 0 disables.  A worker past the deadline is SIGKILLed and the cell
    /// retried under the same accounting as a crash.
    double cell_timeout_s = -1.0;
    /// Per-finished-cell callback, (done, total, cell), completion order.
    std::function<void(std::size_t, std::size_t, const CellResult&)> on_cell;
  };

  explicit ProcessDispatcher(Options options);

  /// Spawn the worker pool (the running binary, current_executable_path(),
  /// with --serve), run every spec on it, then kill it; results[i]
  /// corresponds to specs[i].
  std::vector<CellResult> run(const std::vector<ExperimentSpec>& specs) const;

  /// 1 + FEDHISYN_WORKER_RETRIES (retries default 2, so 3 total tries); a
  /// negative env value falls back to the default.
  static int max_attempts_from_env();

 private:
  Options options_;
};

/// Multi-host twin of ProcessDispatcher: one slot per already-running
/// `--serve` worker, same loop, same retry/timeout/ordering semantics.
/// Workers run wherever — the walkthrough in README "Multi-host grids"
/// starts two on localhost.
class TcpDispatcher {
 public:
  struct Options {
    /// Worker endpoints ("host:port"); empty resolves FEDHISYN_WORKERS.
    std::vector<std::string> hosts;
    /// Total tries per cell; 0 resolves 1 + FEDHISYN_WORKER_RETRIES.
    int max_attempts = 0;
    /// Per-cell deadline; < 0 resolves FEDHISYN_CELL_TIMEOUT_S, 0 disables.
    double cell_timeout_s = -1.0;
    /// Initial connects are retried until this budget elapses (workers may
    /// still be starting); a *re*connect after a death gets one try — a host
    /// that died mid-sweep is retired, its cells reassigned.
    double connect_timeout_s = 10.0;
    /// Per-finished-cell callback, (done, total, cell), completion order.
    std::function<void(std::size_t, std::size_t, const CellResult&)> on_cell;
  };

  explicit TcpDispatcher(Options options);

  /// Run every spec on the worker fleet; results[i] corresponds to specs[i].
  /// Check-fails when no worker can be reached at all, or when every worker
  /// dies with cells still outstanding.
  std::vector<CellResult> run(const std::vector<ExperimentSpec>& specs) const;

  /// FEDHISYN_WORKERS split on commas; empty vector when unset.
  static std::vector<std::string> hosts_from_env();

 private:
  Options options_;
};

/// Entry point of --serve [bind:]port: announce the bound endpoint on stdout
/// as "fedhisyn-serve: listening on <host>:<port>", then accept coordinator
/// connections one at a time, answering each one's cell requests until the
/// peer disconnects.  The worker is resident: its multi-build LRU cache
/// (exp/build_cache.hpp, budget FEDHISYN_BUILD_CACHE_MB / --build-cache-mb)
/// survives across connections, so consecutive sweeps over the same builds
/// skip every rebuild.  Runs until killed.
int serve_main(const std::string& bind_spec);

}  // namespace fedhisyn::exp
