#include "exp/dispatch.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "common/subprocess.hpp"
#include "common/trace.hpp"
#include "exp/build_cache.hpp"
#include "exp/driver.hpp"

namespace fedhisyn::exp {

namespace {

/// With no per-cell deadline, the hello line still gets a generous
/// deadline: it is sent before any work, so a worker quiet this long is a
/// wedged host or a binary that does not speak the protocol — without the
/// bound, one such endpoint would stall the sweep forever.
constexpr double kDefaultHelloGraceS = 60.0;

// ----------------------------------------------------------- wire codec --

/// First stdout line of a `--serve` worker, ending in its bound host:port.
constexpr const char* kAnnouncePrefix = "fedhisyn-serve: listening on ";

std::string encode_hello() {
  return "{\"hello\":\"fedhisyn-worker\",\"proto\":" + std::to_string(kWireRevision) +
         "}";
}

/// Check-fails unless `line` is this protocol's hello — the first line on a
/// fresh link decides whether the endpoint is a worker at all.
void validate_hello(const std::string& line, const std::string& who) {
  std::string problem;
  try {
    const json::Value doc = json::parse(line);
    const json::Value* hello = doc.find("hello");
    const json::Value* proto = doc.find("proto");
    const long revision = proto == nullptr ? 0 : proto->as_long();
    if (hello == nullptr || hello->as_string() != "fedhisyn-worker") {
      problem = "it did not identify as a fedhisyn dispatch worker";
    } else if (revision != kWireRevision) {
      problem = "it speaks wire revision " + std::to_string(revision) +
                ", this coordinator speaks revision " + std::to_string(kWireRevision);
    }
  } catch (const std::exception&) {
    problem = "its greeting is not JSON";
  }
  FEDHISYN_CHECK_MSG(problem.empty(), "cannot dispatch to " << who << ": " << problem
                                                            << " (got: " << line << ")");
}

/// Per-cell telemetry span cap on the wire: bounds response-line size
/// (~100 bytes/span) while covering a cell's run_cell, build, pool and
/// train_job spans; overflow is counted in the block's `dropped`.
constexpr std::size_t kMaxWireSpans = 4096;
// Wire lines are capped at net::kMaxLineBytes: demand 16x headroom over a
// full span block at a generous 128 B/span, which also covers the history.
static_assert(net::kMaxLineBytes >= 16 * kMaxWireSpans * 128,
              "line cap leaves too little headroom over a full telemetry block");

std::string encode_request(const ExperimentSpec& spec, int attempt) {
  std::ostringstream out;
  // `trace` asks the worker to record spans for this cell and ship them in
  // the response's telemetry block.  Counter deltas come back either way.
  out << "{\"attempt\":" << attempt << ",\"trace\":" << (trace::enabled() ? 1 : 0)
      << ",\"spec\":" << spec.to_json() << "}";
  return out.str();
}

std::string encode_ok_response(const CellResult& cell) {
  const core::ExperimentResult& result = cell.result;
  std::ostringstream out;
  out << "{\"ok\":true,\"seconds\":" << json::fmt_double(cell.seconds)
      << ",\"telemetry\":{\"dropped\":" << cell.telemetry.dropped
      << ",\"spans\":[";
  for (std::size_t i = 0; i < cell.telemetry.spans.size(); ++i) {
    const CellTelemetrySpan& span = cell.telemetry.spans[i];
    if (i > 0) out << ",";
    out << "[\"" << json::escape(span.name) << "\",\"" << json::escape(span.cat)
        << "\"," << span.tid << "," << span.ts_us << "," << span.dur_us << "]";
  }
  out << "],\"counters\":{";
  for (std::size_t i = 0; i < cell.telemetry.counters.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json::escape(cell.telemetry.counters[i].first)
        << "\":" << cell.telemetry.counters[i].second;
  }
  out << "}}"
      << ",\"algorithm\":\"" << json::escape(result.algorithm) << "\""
      << ",\"final\":" << json::fmt_float(result.final_accuracy)
      << ",\"best\":" << json::fmt_float(result.best_accuracy) << ",\"comm\":";
  if (result.comm_to_target.has_value()) {
    out << json::fmt_double(*result.comm_to_target);
  } else {
    out << "null";
  }
  out << ",\"rounds_to_target\":";
  if (result.rounds_to_target.has_value()) {
    out << *result.rounds_to_target;
  } else {
    out << "null";
  }
  out << ",\"history\":[";
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const core::RoundRecord& record = result.history[i];
    if (i > 0) out << ",";
    out << "[" << record.round << "," << json::fmt_float(record.accuracy) << ","
        << json::fmt_double(record.comm_rounds) << ","
        << json::fmt_double(record.d2d_transfers) << "]";
  }
  out << "]}";
  return out.str();
}

std::string encode_error_response(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + json::escape(message) + "\"}";
}

/// A count in a response's telemetry block.  Negative is malformed: cast to
/// uint64 it would wrap the coordinator's counter when added.
std::uint64_t as_count(const json::Value& value, const std::string& what) {
  const long long count = value.as_long();
  FEDHISYN_CHECK_MSG(count >= 0, "worker response telemetry " << what << " is negative: "
                                                              << value.text);
  return static_cast<std::uint64_t>(count);
}

/// Parsed worker reply; `error` empty means ok, and `cell` carries
/// everything but the spec (the parent knows the spec by index).
struct Response {
  std::string error;
  CellResult cell;
};

Response parse_response(const std::string& line) {
  const json::Value doc = json::parse(line);
  FEDHISYN_CHECK_MSG(doc.kind == json::Value::Kind::kObject,
                     "worker response is not a JSON object");
  const json::Value* ok = doc.find("ok");
  FEDHISYN_CHECK_MSG(ok != nullptr, "worker response lacks 'ok'");
  Response response;
  if (!ok->as_bool()) {
    const json::Value* error = doc.find("error");
    response.error = error != nullptr ? error->as_string() : "worker reported failure";
    if (response.error.empty()) response.error = "worker reported failure";
    return response;
  }
  const auto field = [&](const char* name) -> const json::Value& {
    const json::Value* value = doc.find(name);
    FEDHISYN_CHECK_MSG(value != nullptr, "worker response lacks '" << name << "'");
    return *value;
  };
  response.cell.seconds = field("seconds").as_double();
  // The telemetry block is worker-side observability the result sinks
  // exclude, still required: spans the worker recorded for this cell (empty
  // unless the request asked for tracing) plus its counter deltas, the
  // build_cache.* outcomes included.  Strictly shaped — a malformed block
  // fails the cell loudly instead of silently dropping observability.
  const json::Value& telemetry = field("telemetry");
  FEDHISYN_CHECK_MSG(telemetry.kind == json::Value::Kind::kObject,
                     "worker response 'telemetry' is not an object");
  const auto telemetry_field = [&](const char* name) -> const json::Value& {
    const json::Value* value = telemetry.find(name);
    FEDHISYN_CHECK_MSG(value != nullptr,
                       "worker response telemetry block lacks '" << name << "'");
    return *value;
  };
  CellTelemetry& tel = response.cell.telemetry;
  tel.dropped = as_count(telemetry_field("dropped"), "'dropped'");
  const json::Value& spans = telemetry_field("spans");
  FEDHISYN_CHECK_MSG(spans.kind == json::Value::Kind::kArray,
                     "worker response telemetry 'spans' is not an array");
  tel.spans.reserve(spans.items.size());
  for (const auto& item : spans.items) {
    FEDHISYN_CHECK_MSG(
        item.kind == json::Value::Kind::kArray && item.items.size() == 5,
        "worker response telemetry span is not a 5-tuple");
    CellTelemetrySpan span;
    span.name = item.items[0].as_string();
    span.cat = item.items[1].as_string();
    span.tid = static_cast<std::uint32_t>(item.items[2].as_long());
    span.ts_us = item.items[3].as_long();
    span.dur_us = item.items[4].as_long();
    tel.spans.push_back(std::move(span));
  }
  const json::Value& tel_counters = telemetry_field("counters");
  FEDHISYN_CHECK_MSG(tel_counters.kind == json::Value::Kind::kObject,
                     "worker response telemetry 'counters' is not an object");
  tel.counters.reserve(tel_counters.members.size());
  for (const auto& [name, value] : tel_counters.members) {
    tel.counters.emplace_back(name, as_count(value, "counter '" + name + "'"));
  }
  core::ExperimentResult& result = response.cell.result;
  result.algorithm = field("algorithm").as_string();
  result.final_accuracy = field("final").as_float();
  result.best_accuracy = field("best").as_float();
  const json::Value& comm = field("comm");
  if (!comm.is_null()) result.comm_to_target = comm.as_double();
  const json::Value& rounds = field("rounds_to_target");
  if (!rounds.is_null()) result.rounds_to_target = static_cast<int>(rounds.as_long());
  const json::Value& history = field("history");
  FEDHISYN_CHECK_MSG(history.kind == json::Value::Kind::kArray,
                     "worker response 'history' is not an array");
  result.history.reserve(history.items.size());
  for (const auto& item : history.items) {
    FEDHISYN_CHECK_MSG(
        item.kind == json::Value::Kind::kArray && item.items.size() == 4,
        "worker response history record is not a 4-tuple");
    core::RoundRecord record;
    record.round = static_cast<int>(item.items[0].as_long());
    record.accuracy = item.items[1].as_float();
    record.comm_rounds = item.items[2].as_double();
    record.d2d_transfers = item.items[3].as_double();
    result.history.push_back(record);
  }
  return response;
}

// ---------------------------------------------------------- worker side --

/// A fault the FEDHISYN_TEST_CRASH / FEDHISYN_TEST_HANG hooks inject, from
/// "<label-substring>[:<attempt>[:<seconds>]]": it fires on cells whose label
/// contains the substring while the request's attempt number is <= the bound
/// (unbounded when omitted).  `seconds` is the hang's sleep.
struct TestFault {
  std::string label;
  int max_attempt = INT_MAX;
  double seconds = 600.0;

  bool fires(const std::string& cell_label, int attempt) const {
    return cell_label.find(label) != std::string::npos && attempt <= max_attempt;
  }
};

/// The fault `env_name` describes; nullopt while it is unset or empty (the
/// hooks are inert outside tests).  Check-fails on a malformed value, which
/// reaches the coordinator as the cell's ok:false error.
std::optional<TestFault> test_fault(const char* env_name) {
  const char* value = std::getenv(env_name);
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  std::vector<std::string> parts(1);
  for (const char* c = value; *c != '\0'; ++c) {
    if (*c == ':') {
      parts.emplace_back();
    } else {
      parts.back().push_back(*c);
    }
  }
  FEDHISYN_CHECK_MSG(parts.size() <= 3,
                     env_name << "=" << value
                              << " is not <label>[:<attempt>[:<seconds>]]");
  TestFault fault;
  fault.label = parts[0];
  char* end = nullptr;
  if (parts.size() >= 2) {
    const long bound = std::strtol(parts[1].c_str(), &end, 10);
    FEDHISYN_CHECK_MSG(*end == '\0' && bound > 0,
                       env_name << "=" << value
                                << ": the attempt bound must be a positive integer");
    fault.max_attempt = static_cast<int>(std::min<long>(bound, INT_MAX));
  }
  if (parts.size() == 3) {
    fault.seconds = std::strtod(parts[2].c_str(), &end);
    FEDHISYN_CHECK_MSG(*end == '\0' && fault.seconds > 0 && std::isfinite(fault.seconds),
                       env_name << "=" << value << ": the seconds must be positive");
  }
  return fault;
}

/// FEDHISYN_TEST_CRASH: abort before running a matching cell — a crash that
/// heals on retry when the attempt is bounded.
void maybe_inject_crash(const std::string& label, int attempt) {
  const std::optional<TestFault> fault = test_fault("FEDHISYN_TEST_CRASH");
  if (!fault || !fault->fires(label, attempt)) return;
  std::fprintf(stderr, "worker: FEDHISYN_TEST_CRASH hit for '%s' (attempt %d)\n",
               label.c_str(), attempt);
  std::abort();
}

/// FEDHISYN_TEST_HANG: sleep `seconds` before running a matching cell — a
/// wedged-but-alive worker for the per-cell timeout tests.
void maybe_inject_hang(const std::string& label, int attempt) {
  const std::optional<TestFault> fault = test_fault("FEDHISYN_TEST_HANG");
  if (!fault || !fault->fires(label, attempt)) return;
  const double sleep_s = fault->seconds;
  std::fprintf(stderr,
               "worker: FEDHISYN_TEST_HANG hit for '%s' (attempt %d): sleeping %gs\n",
               label.c_str(), attempt, sleep_s);
  timespec ts;
  ts.tv_sec = static_cast<time_t>(sleep_s);
  ts.tv_nsec = static_cast<long>((sleep_s - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

/// One worker request: decode, run, encode.  Exceptions become ok:false
/// responses — a deterministic cell failure must travel back to the parent,
/// not kill the worker (crashes are what kill the worker).
std::string handle_request(const std::string& line, BuildCache* cache) {
  try {
    const json::Value doc = json::parse(line);
    const auto field = [&](const char* name) -> const json::Value& {
      const json::Value* value = doc.find(name);
      FEDHISYN_CHECK_MSG(value != nullptr, "worker request lacks '" << name << "'");
      return *value;
    };
    const ExperimentSpec spec = ExperimentSpec::from_json(field("spec"));
    const int attempt = static_cast<int>(field("attempt").as_long());
    const bool want_trace = field("trace").as_long() != 0;
    maybe_inject_crash(spec.label(), attempt);
    maybe_inject_hang(spec.label(), attempt);

    const std::map<std::string, std::uint64_t> counters_before =
        counters::snapshot();
    if (want_trace) trace::collect_begin();
    const std::shared_ptr<const core::BuiltExperiment> built = cache->get(spec);
    CellResult cell = run_cell(spec, *built);
    if (want_trace) {
      const std::vector<trace::CollectedSpan> spans =
          trace::collect_end(kMaxWireSpans, &cell.telemetry.dropped);
      cell.telemetry.spans.reserve(spans.size());
      for (const trace::CollectedSpan& span : spans) {
        cell.telemetry.spans.push_back(
            {span.name, span.cat, span.tid, span.ts_us, span.dur_us});
      }
    }
    // Counter deltas ship whether or not tracing is on — counting is always
    // live, and the coordinator folds them into its own registry.  This is
    // how the cell's build-cache hit or miss reaches the coordinator.
    cell.telemetry.counters =
        counters::delta(counters_before, counters::snapshot());
    return encode_ok_response(cell);
  } catch (const std::exception& e) {
    return encode_error_response(e.what());
  }
}

/// The worker's request/response loop on one coordinator connection: greet,
/// then answer one result line per request line until the peer goes away.
void serve_stream(int fd, BuildCache* cache) {
  if (!net::write_all(fd, encode_hello() + "\n")) return;
  net::LineReader reader(fd, "the coordinator");
  std::string line;
  for (;;) {
    if (reader.read_line(&line) != net::LineReader::Status::kLine) return;
    if (line.empty()) continue;
    if (!net::write_all(fd, handle_request(line, cache) + "\n")) return;
  }
}

// ---------------------------------------------------------- parent side --

/// One worker connection as the dispatch loop sees it: a socket to a
/// `--serve` worker, plus that worker's process when this coordinator
/// spawned it.  Destruction closes the socket, then ~Subprocess kills and
/// reaps the child.
class Link {
 public:
  Link(int fd, std::string endpoint, std::unique_ptr<Subprocess> child)
      : fd_(fd), endpoint_(std::move(endpoint)), child_(std::move(child)) {}
  ~Link() { ::close(fd_); }

  int fd() const { return fd_; }
  /// False when the link is already dead — the EOF on fd() routes the cell
  /// through the death path, so callers just move on.
  bool send(const std::string& line) { return net::write_all(fd_, line); }
  /// Deadline enforcement: make the worker's EOF arrive now.
  void hard_kill() {
    if (child_ != nullptr) {
      child_->kill(SIGKILL);
    } else {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }
  /// Post-mortem description after EOF, for retry diagnostics.
  std::string describe_exit() {
    if (child_ == nullptr) return "connection lost to " + endpoint_;
    child_->kill(SIGKILL);
    return describe(child_->wait());
  }

 private:
  int fd_;
  std::string endpoint_;
  std::unique_ptr<Subprocess> child_;
};

/// Connect to the `--serve` worker at `host` (whose process is `child`, if
/// spawned here) by `deadline`; nullptr when it cannot be reached.
std::unique_ptr<Link> connect_link(const net::HostPort& host, const net::Deadline& deadline,
                                   std::unique_ptr<Subprocess> child) {
  const int fd = net::tcp_connect(host.host, host.port, deadline);
  if (fd < 0) return nullptr;
  return std::make_unique<Link>(fd, host.host + ":" + std::to_string(host.port),
                                std::move(child));
}

/// Opens (or re-opens) slot s; nullptr = the slot is permanently dead
/// (unreachable host, child that never served) and its work is reassigned
/// to the surviving slots.
using ConnectFn = std::function<std::unique_ptr<Link>(std::size_t)>;

/// Deadline for the hello after a (re)connect: the cell deadline when one is
/// set, else the generous default.
double hello_grace_s(const TcpDispatcher::Options& options) {
  return options.cell_timeout_s > 0 ? options.cell_timeout_s : kDefaultHelloGraceS;
}

/// The dispatch loop, one slot per entry of `slot_names` (the slot's lane
/// title in the merged trace): feed idle ready workers in spec order, poll
/// every live link, collect results by spec index, convert worker deaths and
/// blown deadlines into bounded retries.  This is the one place
/// deadline/retry semantics live; the worker sources differ only in how
/// `connect` finds a slot's `--serve` worker (spawned locally or reached
/// remotely).
///
/// Concurrency discipline (checked by review, not locks): the coordinator is
/// strictly single-threaded — every Slot, the pending deque, attempts and
/// results are touched only from this function's poll loop, so there is
/// deliberately no mutex to annotate here.  Parallelism lives in the workers
/// (other processes/hosts).  A write to a vanished worker fails into the
/// retry path instead of raising SIGPIPE: net::write_all sends with
/// MSG_NOSIGNAL.
std::vector<CellResult> run_dispatch(const TcpDispatcher::Options& options,
                                     const std::vector<std::string>& slot_names,
                                     const ConnectFn& connect,
                                     const std::vector<ExperimentSpec>& specs) {
  const std::size_t n = specs.size();
  std::vector<CellResult> results(n);
  if (n == 0) return results;

  struct Slot {
    std::unique_ptr<Link> link;
    net::LineFramer framer;
    long cell = -1;          // spec index in flight, -1 when idle
    std::string last_key;    // build_key of the last cell sent (affinity)
    bool ready = false;      // hello received on this link
    bool timed_out = false;  // hard-killed for exceeding a deadline
    bool retired = false;    // no further (re)connects for this slot
    net::Deadline deadline;  // bounds the hello, then each in-flight cell
    std::int64_t feed_us = 0;  // trace timestamp of the in-flight request
  };
  std::vector<Slot> slots(slot_names.size());
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < n; ++i) pending.push_back(i);
  std::vector<int> attempts(n, 0);
  std::size_t done = 0;

  // Dispatch-plane observability.  Counters are always live; the trace
  // lifecycle spans (queue wait, in-flight run, merged worker lanes) record
  // only while --trace has tracing on, so the untraced loop reads no clock.
  static counters::Counter& cells_counter = counters::counter("dispatch.cells");
  static counters::Counter& retries_counter =
      counters::counter("dispatch.retries");
  static counters::Counter& timeouts_counter =
      counters::counter("dispatch.timeouts");
  static counters::Counter& affinity_counter =
      counters::counter("dispatch.affinity_hits");
  const bool tracing = trace::enabled();
  // Per-cell enqueue time: sweep start, reset when a retry requeues the cell.
  std::vector<std::int64_t> enqueue_us(tracing ? n : 0, 0);
  if (tracing) {
    const std::int64_t start_us = trace::now_us();
    for (std::size_t i = 0; i < n; ++i) enqueue_us[i] = start_us;
  }
  // Precomputed once: the affinity pass in the feed loop compares keys per
  // idle slot per iteration.
  std::vector<std::string> build_keys;
  build_keys.reserve(n);
  for (const ExperimentSpec& spec : specs) build_keys.push_back(spec.build_key());

  const auto open_slot = [&](std::size_t s) {
    Slot& slot = slots[s];
    slot.link = connect(s);
    slot.framer = net::LineFramer("worker " + std::to_string(s));
    slot.cell = -1;
    // A freshly spawned worker starts cold; a reconnected remote one may
    // well be warm, but the coordinator cannot know what its resident cache
    // holds, so affinity restarts from scratch either way.
    slot.last_key.clear();
    slot.ready = false;
    slot.timed_out = false;
    if (slot.link == nullptr) {
      slot.retired = true;
      slot.deadline = net::Deadline::never();
      return;
    }
    slot.deadline = net::Deadline::after(hello_grace_s(options));
  };

  /// A link died (EOF on its fd).  With a cell in flight — crash, timeout or
  /// dropped connection — the cell is retried elsewhere or the sweep fails;
  /// a death before the hello retires the slot (broken binary, dead host).
  const auto handle_death = [&](std::size_t s) {
    Slot& slot = slots[s];
    const bool was_ready = slot.ready;
    std::ostringstream death;
    if (slot.timed_out) {
      death << "timed out after " << options.cell_timeout_s << "s";
    } else {
      death << slot.link->describe_exit();
    }
    const long cell = slot.cell;
    slot.link.reset();
    slot.cell = -1;
    slot.deadline = net::Deadline::never();
    if (cell >= 0) {
      const std::size_t i = static_cast<std::size_t>(cell);
      FEDHISYN_CHECK_MSG(
          attempts[i] < options.max_attempts,
          "grid cell '" << specs[i].label() << "' lost its worker ("
                        << death.str() << ") on all " << options.max_attempts
                        << " attempt(s) — giving up");
      std::fprintf(stderr,
                   "dispatch: worker died (%s) on cell '%s' (attempt %d/%d); retrying\n",
                   death.str().c_str(), specs[i].label().c_str(), attempts[i],
                   options.max_attempts);
      retries_counter.add(1);
      if (tracing) enqueue_us[i] = trace::now_us();
      pending.push_front(i);
    } else if (!was_ready) {
      // Never served anything: reconnecting would only repeat the failure.
      std::fprintf(stderr, "dispatch: worker %zu is unusable (%s); retiring it\n", s,
                   death.str().c_str());
      slot.retired = true;
      return;
    }
    if (cell >= 0 || !pending.empty()) open_slot(s);
  };

  const auto handle_line = [&](std::size_t s, const std::string& line) {
    Slot& slot = slots[s];
    if (!slot.ready) {
      validate_hello(line, "worker " + std::to_string(s));
      slot.ready = true;
      slot.deadline = net::Deadline::never();
      return;
    }
    FEDHISYN_CHECK_MSG(slot.cell >= 0,
                       "worker sent an unsolicited response: " << line);
    const std::size_t i = static_cast<std::size_t>(slot.cell);
    Response response = parse_response(line);
    FEDHISYN_CHECK_MSG(response.error.empty(), "grid cell '" << specs[i].label()
                                                             << "' failed in worker: "
                                                             << response.error);
    cells_counter.add(1);
    // Fold the worker's per-cell counter deltas into this process's registry:
    // purely additive, so a multi-host sweep's --metrics-out totals the fleet.
    for (const auto& [name, delta] : response.cell.telemetry.counters) {
      counters::counter(name).add(delta);
    }
    if (tracing) {
      // The in-flight span on the coordinator lane, named by the cell so the
      // timeline reads directly...
      const std::int64_t now = trace::now_us();
      trace::emit_complete(trace::intern(specs[i].label()), "dispatch",
                           slot.feed_us, now - slot.feed_us, "cell",
                           static_cast<std::int64_t>(i), "slot",
                           static_cast<std::int64_t>(s));
      // ...and the worker's own spans on its lane, rebased from cell-relative
      // to coordinator time at the moment the request was fed.  Skew is the
      // request's network/decode latency — good enough to eyeball overlap.
      trace::set_lane_name(1 + static_cast<int>(s), slot_names[s]);
      for (const CellTelemetrySpan& span : response.cell.telemetry.spans) {
        trace::emit_foreign(1 + static_cast<int>(s), span.tid, span.name, span.cat,
                            slot.feed_us + span.ts_us, span.dur_us);
      }
      trace::count_foreign_dropped(response.cell.telemetry.dropped);
    }
    response.cell.spec = specs[i];
    results[i] = std::move(response.cell);
    slot.cell = -1;
    slot.deadline = net::Deadline::never();
    ++done;
    if (options.on_cell) options.on_cell(done, n, results[i]);
  };

  for (std::size_t s = 0; s < slots.size(); ++s) open_slot(s);

  while (done < n) {
    // Feed idle ready workers, with a build-affinity pass: a worker whose
    // last cell was build K takes the earliest pending cell of build K (its
    // cache holds K resident — a build-interleaved spec order then drains
    // build by build instead of thrashing rebuilds), falling back to the
    // queue front (which keeps retries, pushed to the front, running before
    // new work).  Affinity only reorders *assignment*; results are collected
    // by spec index, so output bytes cannot change.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (pending.empty()) break;
      Slot& slot = slots[s];
      if (slot.link == nullptr || !slot.ready || slot.cell >= 0) continue;
      auto pick = pending.begin();
      if (!slot.last_key.empty()) {
        for (auto it = pending.begin(); it != pending.end(); ++it) {
          if (build_keys[*it] == slot.last_key) {
            pick = it;
            break;
          }
        }
      }
      const std::size_t i = *pick;
      if (!slot.last_key.empty() && build_keys[i] == slot.last_key) {
        affinity_counter.add(1);
      }
      pending.erase(pick);
      ++attempts[i];
      slot.cell = static_cast<long>(i);
      slot.last_key = build_keys[i];
      slot.timed_out = false;
      if (options.cell_timeout_s > 0) {
        slot.deadline = net::Deadline::after(options.cell_timeout_s);
      }
      if (tracing) {
        // Close the cell's queue-wait interval and open its in-flight one.
        slot.feed_us = trace::now_us();
        trace::emit_complete("cell.queued", "dispatch", enqueue_us[i],
                             slot.feed_us - enqueue_us[i], "cell",
                             static_cast<std::int64_t>(i), "attempt",
                             attempts[i]);
      }
      if (!slot.link->send(encode_request(specs[i], attempts[i]) + "\n")) {
        // The worker died before taking the request; its EOF is (or will
        // be) visible on fd() — the poll loop routes it to handle_death.
        continue;
      }
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_slot;
    int timeout_ms = -1;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].link == nullptr) continue;
      fds.push_back({slots[s].link->fd(), POLLIN, 0});
      fd_slot.push_back(s);
      const int slot_ms = slots[s].deadline.poll_timeout_ms();
      if (slot_ms >= 0 && (timeout_ms < 0 || slot_ms < timeout_ms)) {
        timeout_ms = slot_ms;
      }
    }
    FEDHISYN_CHECK_MSG(!fds.empty(), "dispatch stalled: every worker is dead or "
                                     "unreachable with "
                                         << n - done << " cell(s) outstanding");
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      FEDHISYN_CHECK_MSG(errno == EINTR, "poll failed: " << std::strerror(errno));
      continue;
    }
    for (std::size_t f = 0; f < fds.size(); ++f) {
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t s = fd_slot[f];
      Slot& slot = slots[s];
      char buf[65536];
      const ssize_t got = ::read(slot.link->fd(), buf, sizeof(buf));
      if (got < 0) {
        if (errno == EINTR) continue;
        handle_death(s);  // reset/refused read: same as EOF
        continue;
      }
      if (got == 0) {
        handle_death(s);
        continue;
      }
      slot.framer.append(buf, static_cast<std::size_t>(got));
      std::string line;
      while (slot.framer.pop_line(&line)) {
        if (!line.empty()) handle_line(s, line);
      }
    }
    // Deadlines: a worker past its hello/cell budget gets its EOF forced;
    // the death path above turns that into a retry (or a retired slot).
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (slot.link == nullptr || slot.timed_out || !slot.deadline.expired()) {
        continue;
      }
      slot.timed_out = true;
      slot.deadline = net::Deadline::never();
      timeouts_counter.add(1);
      if (slot.cell >= 0) {
        std::fprintf(stderr,
                     "dispatch: cell '%s' exceeded the %gs deadline; killing its "
                     "worker\n",
                     specs[static_cast<std::size_t>(slot.cell)].label().c_str(),
                     options.cell_timeout_s);
      } else {
        std::fprintf(stderr, "dispatch: worker %zu sent no hello in time; dropping it\n",
                     s);
      }
      slot.link->hard_kill();
    }
  }

  return results;
}

}  // namespace

int serve_main(const std::string& bind_spec, const WorkerConfig& config) {
  FEDHISYN_CHECK_MSG(!bind_spec.empty() && bind_spec != "true",
                     "--serve needs [bind:]port (port 0 picks an ephemeral port)");
  const net::HostPort bind = net::parse_host_port(bind_spec, "0.0.0.0");
  const int listen_fd = net::tcp_listen(bind.host, bind.port);
  // Announce the actual endpoint (resolves port 0) on the real stdout so
  // scripts and benches can discover it, then re-route stdout to stderr —
  // the protocol runs over the sockets, and nothing else should print where
  // an announcement parser might read it.
  std::printf("%s%s:%u\n", kAnnouncePrefix, bind.host.c_str(),
              static_cast<unsigned>(net::local_port(listen_fd)));
  std::fflush(stdout);
  ::dup2(STDERR_FILENO, STDOUT_FILENO);
  // The cache outlives connections: the worker is resident, so back-to-back
  // sweeps (or a coordinator reconnect) reuse warm builds under the LRU byte
  // budget.
  BuildCache cache(BuildCache::Config{config.build_cache_bytes,
                                      config.quiet ? "" : "fedhisyn-serve"});
  for (;;) {
    const int conn = net::tcp_accept(listen_fd);
    if (conn < 0) return 0;
    if (!config.quiet) std::fprintf(stderr, "fedhisyn-serve: coordinator connected\n");
    try {
      serve_stream(conn, &cache);
    } catch (const std::exception& e) {  // an over-long line: drop the peer only
      std::fprintf(stderr, "fedhisyn-serve: dropping coordinator: %s\n", e.what());
    }
    ::close(conn);
    if (config.quiet) continue;
    // The registry's totals are this cache's: a worker process has only one.
    const auto total = [](const char* name) {
      return static_cast<unsigned long long>(counters::counter(name).get());
    };
    std::fprintf(stderr,
                 "fedhisyn-serve: coordinator disconnected (cache: %llu hit(s), "
                 "%llu miss(es), %llu eviction(s); %zu build(s) resident)\n",
                 total("build_cache.hits"), total("build_cache.misses"),
                 total("build_cache.evictions"), cache.stats().resident_builds);
  }
}

int serve_main(const std::string& bind_spec) {
  return serve_main(bind_spec, resolve_worker_config(Flags{}));
}

TcpDispatcher::TcpDispatcher(Options options) : options_(std::move(options)) {
  FEDHISYN_CHECK_MSG(options_.hosts.empty() != (options_.spawn == 0),
                     "TcpDispatcher needs exactly one worker source: hosts or spawn");
  FEDHISYN_CHECK_MSG(options_.max_attempts >= 1,
                     "TcpDispatcher needs max_attempts >= 1, got "
                         << options_.max_attempts);
}

std::vector<CellResult> TcpDispatcher::run(
    const std::vector<ExperimentSpec>& specs) const {
  const std::size_t n = specs.size();
  if (n == 0) return {};
  const bool spawning = options_.spawn > 0;
  std::vector<net::HostPort> hosts;
  hosts.reserve(options_.hosts.size());
  for (const auto& spec : options_.hosts) {
    hosts.push_back(net::parse_host_port(spec, "127.0.0.1"));
  }
  const std::size_t slots = std::min(spawning ? options_.spawn : hosts.size(), n);

  // Spawned slots: each (re)connect takes a fresh `--serve` child on an
  // ephemeral loopback port, reads the port from its announce line and
  // connects to it.  A child that never announces (a binary that cannot
  // serve) retires the slot.  The first children are all spawned up front so
  // their start-ups overlap.
  const std::string binary = spawning ? current_executable_path() : std::string();
  const auto spawn_child = [&] {
    return std::make_unique<Subprocess>(
        std::vector<std::string>{binary, "--serve", "127.0.0.1:0"}, options_.spawn_env);
  };
  std::vector<std::unique_ptr<Subprocess>> first_children(spawning ? slots : 0);
  for (auto& child : first_children) child = spawn_child();
  const auto connect_child = [&](std::size_t s) -> std::unique_ptr<Link> {
    std::unique_ptr<Subprocess> child =
        first_children[s] != nullptr ? std::move(first_children[s]) : spawn_child();
    const net::Deadline deadline = net::Deadline::after(hello_grace_s(options_));
    net::LineReader announce(child->stdout_fd(), "a spawned worker");
    std::string line;
    std::unique_ptr<Link> link;
    if (announce.read_line(&line, deadline) == net::LineReader::Status::kLine &&
        line.rfind(kAnnouncePrefix, 0) == 0) {
      const net::HostPort host =
          net::parse_host_port(line.substr(std::strlen(kAnnouncePrefix)), "127.0.0.1");
      link = connect_link(host, deadline, std::move(child));
    }
    if (link == nullptr) {
      std::fprintf(stderr, "dispatch: worker process %s did not start serving\n",
                   binary.c_str());
    }
    return link;
  };

  // Host slots: the first connect retries until the budget elapses (the
  // worker may still be starting); a reconnect after a death gets a single
  // try — a host that died mid-sweep is retired and its cells reassigned.
  std::vector<char> first_connect(hosts.size(), 1);
  const auto connect_host = [&](std::size_t s) -> std::unique_ptr<Link> {
    const net::HostPort& host = hosts[s];
    const bool keep_trying = first_connect[s] != 0;
    first_connect[s] = 0;
    const net::Deadline budget = net::Deadline::after(options_.connect_timeout_s);
    for (;;) {
      std::unique_ptr<Link> link = connect_link(host, budget, nullptr);
      if (link != nullptr) return link;
      if (!keep_trying || budget.expired()) {
        std::fprintf(stderr, "dispatch: cannot connect to worker %s:%u\n",
                     host.host.c_str(), static_cast<unsigned>(host.port));
        return nullptr;
      }
      ::usleep(100 * 1000);  // the worker may still be binding its port
    }
  };

  std::vector<std::string> slot_names;
  slot_names.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::string where =
        spawning ? "process" : hosts[s].host + ":" + std::to_string(hosts[s].port);
    slot_names.push_back("worker " + std::to_string(s) + " (" + where + ")");
  }
  if (spawning) return run_dispatch(options_, slot_names, connect_child, specs);
  return run_dispatch(options_, slot_names, connect_host, specs);
}

}  // namespace fedhisyn::exp
