#include "common/trace.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"

namespace fedhisyn::trace {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

// Per-thread event capacity.  Fixed so recording never reallocates (a
// realloc would invalidate the buffer under a concurrent drain); a sweep
// that outgrows it drops events and reports the loss instead of growing.
constexpr std::size_t kBufferCapacity = 1 << 15;

using trace_clock = std::chrono::steady_clock;  // determinism: trace-clock

/// One thread's event buffer.  Single writer (the owning thread) publishes
/// with a release store of count_; drains acquire-load it from the
/// coordinating thread at quiescent points.
struct ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t tid) : tid(tid) {
    events.resize(kBufferCapacity);
  }

  void push(const Event& event) {
    const std::uint32_t n = count.load(std::memory_order_relaxed);
    if (n >= kBufferCapacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[n] = event;
    count.store(n + 1, std::memory_order_release);
  }

  const std::uint32_t tid;
  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::vector<Event> events;
};

/// Foreign events merged from dispatch workers, plus lane names.  Touched
/// only by the coordinator's single-threaded dispatch loop and the final
/// writer, but locked anyway: the cost is per merged cell, not per span.
struct ForeignState {
  Mutex mutex;
  std::vector<std::pair<int, Event>> events FEDHISYN_GUARDED_BY(mutex);
  std::map<int, std::string> lane_names FEDHISYN_GUARDED_BY(mutex);
};

ForeignState& foreign_state() {
  static ForeignState* state = new ForeignState();
  return *state;
}

/// Registry of every thread buffer ever created.  Buffers are
/// intentionally leaked (never destroyed): a pool worker thread (of a
/// private pool, or of the global pool before set_thread_count() replaces
/// it) may exit long before write_chrome_trace() runs, and its events must
/// survive it.  Bounded by thread count, not event count.
struct Registry {
  Mutex mutex;
  std::vector<ThreadBuffer*> buffers FEDHISYN_GUARDED_BY(mutex);
  std::uint32_t next_tid FEDHISYN_GUARDED_BY(mutex) = 0;
  // collect_begin() high-water marks: events below a buffer's mark belong
  // to a previous cell and are not drained again.
  std::vector<std::uint32_t> drain_marks FEDHISYN_GUARDED_BY(mutex);
  std::int64_t epoch_us FEDHISYN_GUARDED_BY(mutex) = 0;
};

Registry& registry() {
  static Registry* instance = new Registry();
  return *instance;
}

thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer& local_buffer() {
  if (tl_buffer == nullptr) {
    Registry& reg = registry();
    MutexLock lock(reg.mutex);
    tl_buffer = new ThreadBuffer(reg.next_tid++);
    reg.buffers.push_back(tl_buffer);
    reg.drain_marks.push_back(0);
  }
  return *tl_buffer;
}

/// Trace epoch: pinned on the first enable so all timestamps share one
/// origin.  steady_clock, like every other timing read in the repo.
trace_clock::time_point trace_epoch() {
  static const trace_clock::time_point epoch =
      trace_clock::now();  // determinism: trace-clock
  return epoch;
}

std::set<std::string>& intern_pool(MutexLock&) {
  static std::set<std::string>* pool = new std::set<std::string>();
  return *pool;
}

Mutex& intern_mutex() {
  static Mutex* mutex = new Mutex();
  return *mutex;
}

void json_escape_into(std::string& out, const char* text) {
  for (const char* c = text; *c != '\0'; ++c) {
    switch (*c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(*c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", *c);
          out += buf;
        } else {
          out += *c;
        }
    }
  }
}

void append_event_json(std::string& out, int pid, const Event& event) {
  char buf[160];
  out += "{\"name\":\"";
  json_escape_into(out, event.name);
  out += "\",\"cat\":\"";
  json_escape_into(out, event.cat != nullptr ? event.cat : "misc");
  std::snprintf(buf, sizeof(buf), "\",\"ph\":\"%c\",\"pid\":%d,\"tid\":%u,\"ts\":%lld",
                event.ph, pid, event.tid, static_cast<long long>(event.ts_us));
  out += buf;
  if (event.ph == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%lld",
                  static_cast<long long>(event.dur_us));
    out += buf;
  }
  if (event.ph == 'i') out += ",\"s\":\"t\"";
  const bool counter = event.ph == 'C';
  if (counter || event.arg1_name != nullptr || event.sarg_name != nullptr) {
    out += ",\"args\":{";
    bool first = true;
    const auto int_arg = [&](const char* name, std::int64_t value) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      json_escape_into(out, name);
      std::snprintf(buf, sizeof(buf), "\":%lld", static_cast<long long>(value));
      out += buf;
    };
    if (counter) {
      int_arg("value", event.arg1);
    } else {
      if (event.arg1_name != nullptr) int_arg(event.arg1_name, event.arg1);
      if (event.arg2_name != nullptr) int_arg(event.arg2_name, event.arg2);
    }
    if (event.sarg_name != nullptr && event.sarg != nullptr) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      json_escape_into(out, event.sarg_name);
      out += "\":\"";
      json_escape_into(out, event.sarg);
      out += "\"";
    }
    out += "}";
  }
  out += "}";
}

}  // namespace

void set_enabled(bool on) {
  if (on) trace_epoch();  // pin the epoch before anyone can record
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             trace_clock::now() - trace_epoch())  // determinism: trace-clock
      .count();
}

double clock_seconds() {
  return std::chrono::duration<double>(
             trace_clock::now().time_since_epoch())  // determinism: trace-clock
      .count();
}

const char* intern(const std::string& text) {
  MutexLock lock(intern_mutex());
  return intern_pool(lock).insert(text).first->c_str();
}

void TraceSpan::begin(const char* name, const char* cat) {
  name_ = name;
  cat_ = cat;
  start_us_ = now_us();
}

void TraceSpan::end() {
  // Check again: tracing may have been switched off mid-span (collection
  // mode never does this, but the API must not record a bogus event).
  if (!enabled()) return;
  Event event;
  event.name = name_;
  event.cat = cat_;
  event.ph = 'X';
  event.ts_us = start_us_;
  event.dur_us = now_us() - start_us_;
  event.arg1_name = arg1_name_;
  event.arg1 = arg1_;
  event.arg2_name = arg2_name_;
  event.arg2 = arg2_;
  event.sarg_name = sarg_name_;
  event.sarg = sarg_;
  ThreadBuffer& buffer = local_buffer();
  event.tid = buffer.tid;
  buffer.push(event);
}

void instant(const char* name, const char* cat) {
  if (!enabled()) return;
  Event event;
  event.name = name;
  event.cat = cat;
  event.ph = 'i';
  event.ts_us = now_us();
  ThreadBuffer& buffer = local_buffer();
  event.tid = buffer.tid;
  buffer.push(event);
}

void counter_sample(const char* name, std::int64_t value) {
  if (!enabled()) return;
  Event event;
  event.name = name;
  event.cat = "counter";
  event.ph = 'C';
  event.ts_us = now_us();
  event.arg1 = value;
  ThreadBuffer& buffer = local_buffer();
  event.tid = buffer.tid;
  buffer.push(event);
}

void emit_complete(const char* name, const char* cat, std::int64_t ts_us,
                   std::int64_t dur_us, const char* arg1_name, std::int64_t arg1,
                   const char* arg2_name, std::int64_t arg2) {
  if (!enabled()) return;
  Event event;
  event.name = name;
  event.cat = cat;
  event.ph = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.arg1_name = arg1_name;
  event.arg1 = arg1;
  event.arg2_name = arg2_name;
  event.arg2 = arg2;
  ThreadBuffer& buffer = local_buffer();
  event.tid = buffer.tid;
  buffer.push(event);
}

void emit_foreign(int pid, std::uint32_t tid, const std::string& name,
                  const std::string& cat, std::int64_t ts_us,
                  std::int64_t dur_us) {
  if (!enabled()) return;
  Event event;
  event.name = intern(name);
  event.cat = intern(cat);
  event.ph = 'X';
  event.tid = tid;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  ForeignState& state = foreign_state();
  MutexLock lock(state.mutex);
  state.events.emplace_back(pid, event);
}

void set_lane_name(int pid, const std::string& name) {
  if (!enabled()) return;
  ForeignState& state = foreign_state();
  MutexLock lock(state.mutex);
  state.lane_names.emplace(pid, name);
}

void collect_begin() {
  set_enabled(true);
  Registry& reg = registry();
  MutexLock lock(reg.mutex);
  // Discard everything recorded before this cell by rewinding the buffers:
  // collection workers run cells strictly one at a time, so this runs at a
  // quiescent point and the fixed-capacity buffers are reused per cell
  // instead of filling up over a long sweep.
  for (std::size_t i = 0; i < reg.buffers.size(); ++i) {
    reg.buffers[i]->count.store(0, std::memory_order_release);
    reg.buffers[i]->dropped.store(0, std::memory_order_relaxed);
    reg.drain_marks[i] = 0;
  }
  reg.epoch_us = now_us();
}

std::vector<CollectedSpan> collect_end(std::size_t max_spans,
                                       std::uint64_t* dropped) {
  std::vector<CollectedSpan> spans;
  Registry& reg = registry();
  MutexLock lock(reg.mutex);
  for (std::size_t i = 0; i < reg.buffers.size(); ++i) {
    ThreadBuffer& buffer = *reg.buffers[i];
    const std::uint32_t n = buffer.count.load(std::memory_order_acquire);
    for (std::uint32_t e = reg.drain_marks[i]; e < n; ++e) {
      const Event& event = buffer.events[e];
      if (event.ph != 'X') continue;
      if (spans.size() >= max_spans) {
        if (dropped != nullptr) ++*dropped;
        continue;
      }
      CollectedSpan span;
      span.name = event.name;
      span.cat = event.cat != nullptr ? event.cat : "misc";
      span.tid = event.tid;
      span.ts_us = event.ts_us - reg.epoch_us;
      span.dur_us = event.dur_us;
      spans.push_back(std::move(span));
    }
    reg.drain_marks[i] = n;
    if (dropped != nullptr) {
      *dropped += buffer.dropped.exchange(0, std::memory_order_relaxed);
    }
  }
  return spans;
}

void write_chrome_trace(const std::string& path) {
  std::string out = "{\"traceEvents\":[\n";
  char buf[128];
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Lane metadata: pid 0 is this process; merged worker lanes carry the
  // names the dispatch loop assigned.
  comma();
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"coordinator\"}}";
  {
    ForeignState& state = foreign_state();
    MutexLock lock(state.mutex);
    for (const auto& [pid, name] : state.lane_names) {
      comma();
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"tid\":0,\"args\":{\"name\":\"",
                    pid);
      out += buf;
      json_escape_into(out, name.c_str());
      out += "\"}}";
    }
    for (const auto& [pid, event] : state.events) {
      comma();
      append_event_json(out, pid, event);
    }
  }

  std::uint64_t dropped = 0;
  {
    Registry& reg = registry();
    MutexLock lock(reg.mutex);
    for (ThreadBuffer* buffer : reg.buffers) {
      const std::uint32_t n = buffer->count.load(std::memory_order_acquire);
      for (std::uint32_t e = 0; e < n; ++e) {
        comma();
        append_event_json(out, /*pid=*/0, buffer->events[e]);
      }
      dropped += buffer->dropped.load(std::memory_order_relaxed);
    }
  }
  out += "\n],\"otherData\":{\"dropped_events\":";
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(dropped));
  out += buf;
  out += "}}\n";

  std::FILE* file = std::fopen(path.c_str(), "w");
  FEDHISYN_CHECK_MSG(file != nullptr, "cannot write trace file " << path);
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), file);
  const int closed = std::fclose(file);
  FEDHISYN_CHECK_MSG(written == out.size() && closed == 0,
                     "short write on trace file " << path);
}

std::uint64_t recorded_event_count() {
  std::uint64_t total = 0;
  Registry& reg = registry();
  MutexLock lock(reg.mutex);
  for (ThreadBuffer* buffer : reg.buffers) {
    total += buffer->count.load(std::memory_order_acquire);
  }
  {
    ForeignState& state = foreign_state();
    MutexLock foreign_lock(state.mutex);
    total += state.events.size();
  }
  return total;
}

std::uint64_t dropped_event_count() {
  std::uint64_t total = 0;
  Registry& reg = registry();
  MutexLock lock(reg.mutex);
  for (ThreadBuffer* buffer : reg.buffers) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace fedhisyn::trace
