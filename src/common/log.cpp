#include "common/log.hpp"

#include <cstdio>

#include "common/thread_annotations.hpp"

namespace fedhisyn {

namespace {
/// Serialises whole log lines onto stderr: the stream itself is the guarded
/// resource, so there is no GUARDED_BY field — emitters take the lock for
/// the duration of one fprintf.
Mutex g_stderr_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?????";
}
}  // namespace

namespace detail {
void log_emit(LogLevel level, const std::string& message) {
  if (level < LogLevel::kInfo) return;
  MutexLock lock(g_stderr_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), message.c_str());
}
}  // namespace detail

}  // namespace fedhisyn
