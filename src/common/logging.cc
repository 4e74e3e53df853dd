#include "common/logging.h"

#include <cstring>

namespace streamlake {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

}  // namespace

LogLevel GetLogLevel() { return LogLevel::kWarn; }

void LogMessage(LogLevel level, const char* file, int line,
                const std::string& msg) {
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), Basename(file),
               line, msg.c_str());
}

}  // namespace streamlake
