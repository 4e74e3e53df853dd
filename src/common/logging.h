#ifndef STREAMLAKE_COMMON_LOGGING_H_
#define STREAMLAKE_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace streamlake {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Process-wide minimum level (kWarn).
LogLevel GetLogLevel();

void LogMessage(LogLevel level, const char* file, int line,
                const std::string& msg);

namespace internal {

/// Collects the streamed message and emits it on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogLine() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal

#define SL_LOG(level)                                                \
  if (::streamlake::LogLevel::k##level < ::streamlake::GetLogLevel()) \
    ;                                                                \
  else                                                               \
    ::streamlake::internal::LogLine(::streamlake::LogLevel::k##level, \
                                    __FILE__, __LINE__)

/// Invariant check that survives release builds (storage code must never
/// silently corrupt data).
#define SL_CHECK(cond)                                                   \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::streamlake::LogMessage(::streamlake::LogLevel::kError, __FILE__, \
                               __LINE__, "CHECK failed: " #cond);        \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

}  // namespace streamlake

#endif  // STREAMLAKE_COMMON_LOGGING_H_
