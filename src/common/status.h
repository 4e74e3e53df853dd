#ifndef STREAMLAKE_COMMON_STATUS_H_
#define STREAMLAKE_COMMON_STATUS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

namespace streamlake {

/// Error codes used across StreamLake. Modeled after the RocksDB/Arrow
/// convention: operations return a Status (or Result<T>) instead of throwing.
enum class StatusCode : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kAlreadyExists = 2,
  kInvalidArgument = 3,
  kIOError = 4,
  kCorruption = 5,
  kNotSupported = 6,
  kResourceExhausted = 7,
  kConflict = 8,       // optimistic-concurrency commit conflicts
  kQuotaExceeded = 9,  // stream quota violations
  kTimeout = 10,
  kAborted = 11,       // transaction aborts (2PC)
  kOutOfMemory = 12,   // simulated compute-side OOM (Fig. 15b)
  kUnknown = 255,
};

/// \brief Outcome of an operation: a code plus a human-readable message.
///
/// Cheap to copy in the OK case (no allocation); error construction
/// allocates the message. Never throw across StreamLake API boundaries.
///
/// [[nodiscard]] on the class makes every function returning Status by
/// value warn when the caller drops the result (enforced repo-wide by
/// tools/lint.py and -Werror in scripts/check.sh).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg) {
    return Status(StatusCode::kNotFound, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(StatusCode::kAlreadyExists, msg);
  }
  static Status InvalidArgument(std::string_view msg) {
    return Status(StatusCode::kInvalidArgument, msg);
  }
  static Status IOError(std::string_view msg) {
    return Status(StatusCode::kIOError, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(StatusCode::kCorruption, msg);
  }
  static Status NotSupported(std::string_view msg) {
    return Status(StatusCode::kNotSupported, msg);
  }
  static Status ResourceExhausted(std::string_view msg) {
    return Status(StatusCode::kResourceExhausted, msg);
  }
  static Status Conflict(std::string_view msg) {
    return Status(StatusCode::kConflict, msg);
  }
  static Status QuotaExceeded(std::string_view msg) {
    return Status(StatusCode::kQuotaExceeded, msg);
  }
  static Status Timeout(std::string_view msg) {
    return Status(StatusCode::kTimeout, msg);
  }
  static Status Aborted(std::string_view msg) {
    return Status(StatusCode::kAborted, msg);
  }
  static Status OutOfMemory(std::string_view msg) {
    return Status(StatusCode::kOutOfMemory, msg);
  }
  static Status Unknown(std::string_view msg) {
    return Status(StatusCode::kUnknown, msg);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsConflict() const { return code_ == StatusCode::kConflict; }
  bool IsQuotaExceeded() const { return code_ == StatusCode::kQuotaExceeded; }
  bool IsTimeout() const { return code_ == StatusCode::kTimeout; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsOutOfMemory() const { return code_ == StatusCode::kOutOfMemory; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders e.g. "IOError: disk full" or "OK".
  std::string ToString() const;

  /// Explicitly discard this status at best-effort call sites (cache drops,
  /// rollback cleanup). Keeps [[nodiscard]] honest: every ignored Status is
  /// greppable instead of silent.
  void IgnoreError() const {}

  /// Like IgnoreError(), but an error is not silent: it logs a warning
  /// tagged with `what` (the call-site's one-word reason) and bumps the
  /// `common.status.ignored` counter. Use in background workers and
  /// rollback paths where a dropped error would otherwise vanish.
  void LogIgnored(const char* what) const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(StatusCode code, std::string_view msg)
      : code_(code), message_(msg) {}

  StatusCode code_;
  std::string message_;
};

/// Evaluate `expr`; if the resulting Status is not OK, return it.
#define SL_RETURN_NOT_OK(expr)            \
  do {                                    \
    ::streamlake::Status _s = (expr);     \
    if (!_s.ok()) return _s;              \
  } while (0)

namespace internal {
/// Overload set used by SL_CHECK_OK to extract the Status from either a
/// Status or a Result<T> (result.h adds the Result overload).
inline const Status& StatusOf(const Status& s) { return s; }
}  // namespace internal

/// Abort if a Status/Result expression is not OK. For benches, examples,
/// and test harness code where a failure means the setup itself is broken
/// and there is no caller to propagate to. The Status is copied: `expr`
/// may be `Foo().status()`, a reference into a temporary that dies at the
/// end of the declaration.
#define SL_CHECK_OK(expr)                                                \
  do {                                                                   \
    const ::streamlake::Status _sl_ok =                                  \
        ::streamlake::internal::StatusOf(expr);                          \
    if (!_sl_ok.ok()) {                                                  \
      std::fprintf(stderr, "%s:%d: CHECK_OK failed: %s -> %s\n",         \
                   __FILE__, __LINE__, #expr, _sl_ok.ToString().c_str()); \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

}  // namespace streamlake

#endif  // STREAMLAKE_COMMON_STATUS_H_
