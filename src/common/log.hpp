// Minimal leveled logger.  Experiments print their tables through
// common/table.hpp; the logger is for progress and diagnostics only.
#pragma once

#include <sstream>
#include <string>

namespace fedhisyn {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

namespace detail {
/// Writes one line to stderr; messages below kInfo are dropped.
void log_emit(LogLevel level, const std::string& message);
}

/// Stream-style log statement: LOG(kInfo) << "round " << r;
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { detail::log_emit(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace fedhisyn

#define FEDHISYN_LOG(level) ::fedhisyn::LogLine(::fedhisyn::LogLevel::level)
