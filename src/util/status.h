// Status / StatusOr: lightweight error propagation in the style used by
// database systems such as Arrow and RocksDB. The library does not use
// exceptions on its hot paths; fallible operations return Status or
// StatusOr<T>.
#ifndef XPWQO_UTIL_STATUS_H_
#define XPWQO_UTIL_STATUS_H_

#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace xpwqo {

/// Machine-readable error category.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kNotFound,
  kUnimplemented,
  kOutOfRange,
  kInternal,
  /// Persistent data failed validation: bad magic, checksum mismatch,
  /// truncated or inconsistent on-disk structures. The data is untrusted;
  /// the caller should fall back to a rebuild from the source of truth.
  kCorruption,
  /// The operating system failed an I/O operation (open/stat/mmap/write).
  /// Unlike kCorruption the data itself is not implicated; retrying or
  /// fixing permissions may succeed.
  kIoError,
  /// The query's deadline expired before evaluation finished. The partial
  /// work is discarded; re-running with the same deadline would expire the
  /// same way, so the status is not retryable — the caller must widen the
  /// deadline (or narrow the query).
  kDeadlineExceeded,
  /// A capacity limit was hit: the admission queue was full, the
  /// concurrent-query cap was reached, or a visited-node budget ran out.
  /// Overload is transient by nature, so the status is retryable — backing
  /// off and resubmitting is the expected reaction to load shedding.
  kResourceExhausted,
  /// The caller cancelled the query through its cancellation token. Not
  /// retryable: cancellation is a decision, not a failure.
  kCancelled,
  /// The operation needs state the system does not have — e.g. a client
  /// call on a connection that is not open. Not retryable: the caller must
  /// change the setup, not repeat the call.
  kFailedPrecondition,
};

/// Human-readable name of a status code (e.g. "ParseError").
const char* StatusCodeName(StatusCode code);

/// True for failures where retrying the same operation can plausibly
/// succeed: kIoError (transient OS failures — the persist layer keeps lazy
/// loaders retryable for exactly this) and kResourceExhausted (overload
/// shedding — back off and resubmit). Everything else is deterministic
/// (kCorruption needs a rebuild, kDeadlineExceeded a wider deadline,
/// kCancelled was a decision), so a retry would only repeat the failure.
bool IsRetryable(StatusCode code);

/// The result of an operation that can fail. Cheap to copy when OK (a single
/// word); error details live behind a pointer.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  Status(StatusCode code, std::string msg)
      : rep_(std::make_shared<Rep>(Rep{code, std::move(msg)})) {}

  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<Rep> rep_;  // null == OK
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

inline bool IsRetryable(const Status& status) {
  return IsRetryable(status.code());
}

/// Either a value of type T or an error Status. Never holds an OK status
/// without a value.
template <typename T>
class StatusOr {
 public:
  /*implicit*/ StatusOr(T value) : v_(std::move(value)) {}
  /*implicit*/ StatusOr(Status status) : v_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(v_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(v_);
  }

  /// Requires ok(). Aborts otherwise (programming error).
  const T& value() const& {
    CheckOk();
    return std::get<T>(v_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(v_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(v_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::abort();
    }
  }
  std::variant<T, Status> v_;
};

// Propagates a non-OK status from an expression.
#define XPWQO_RETURN_IF_ERROR(expr)        \
  do {                                     \
    ::xpwqo::Status _st = (expr);          \
    if (!_st.ok()) return _st;             \
  } while (0)

// Evaluates a StatusOr expression, propagating errors, binding the value.
#define XPWQO_ASSIGN_OR_RETURN(lhs, expr)                  \
  XPWQO_ASSIGN_OR_RETURN_IMPL(                             \
      XPWQO_STATUS_CONCAT(_status_or, __LINE__), lhs, expr)
#define XPWQO_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()
#define XPWQO_STATUS_CONCAT(a, b) XPWQO_STATUS_CONCAT_IMPL(a, b)
#define XPWQO_STATUS_CONCAT_IMPL(a, b) a##b

}  // namespace xpwqo

#endif  // XPWQO_UTIL_STATUS_H_
