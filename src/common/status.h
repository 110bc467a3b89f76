// Status and Result<T>: exception-free error propagation for fallible
// operations, in the style of RocksDB/Arrow. Programming errors are handled
// with the CHECK macros in check.h instead.
#pragma once

#include <string>
#include <utility>
#include <variant>

namespace genclus {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kNumericalError,
  kIoError,
  kNotConverged,
  kInternal,
  kCancelled,
  /// A bounded resource (e.g. the serving tier's request queue) is at
  /// capacity; the caller should back off and retry.
  kResourceExhausted,
  /// The request's deadline expired before (or would expire during)
  /// service: shed at dequeue, rejected by cost-based admission, or
  /// already expired at submit. The work was not performed.
  kDeadlineExceeded,
};

/// Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Outcome of a fallible operation: a code plus, when not OK, a message.
///
/// Usage:
///   Status s = DoThing();
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NumericalError(std::string msg) {
    return Status(StatusCode::kNumericalError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotConverged(std::string msg) {
    return Status(StatusCode::kNotConverged, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// A status of this one's code carrying `msg` instead: adds context to
  /// an error on its way out.
  Status WithMessage(std::string msg) const {
    return Status(code_, std::move(msg));
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or a non-OK Status.
///
/// Usage:
///   Result<Network> r = LoadNetwork(path);
///   if (!r.ok()) return r.status();
///   Network net = std::move(r).value();
template <typename T>
class Result {
 public:
  /// Implicit from value: allows `return t;` in functions returning Result<T>.
  Result(T value) : inner_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status; must not be OK (an OK status carries no T).
  Result(Status status) : inner_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(inner_); }

  /// The status: OK if a value is present.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(inner_);
  }

  const T& value() const& { return std::get<T>(inner_); }
  T& value() & { return std::get<T>(inner_); }
  T&& value() && { return std::get<T>(std::move(inner_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> inner_;
};

}  // namespace genclus

/// Propagates a non-OK status out of the enclosing function.
#define GENCLUS_RETURN_IF_ERROR(expr)              \
  do {                                             \
    ::genclus::Status status_macro_s_ = (expr);    \
    if (!status_macro_s_.ok()) return status_macro_s_; \
  } while (0)

/// Evaluates a Result expression; assigns the value on success, propagates
/// the status on failure. `lhs` must be a declaration or assignable lvalue.
#define GENCLUS_ASSIGN_OR_RETURN(lhs, expr)          \
  GENCLUS_ASSIGN_OR_RETURN_IMPL_(                    \
      GENCLUS_STATUS_CONCAT_(result_macro_, __LINE__), lhs, expr)

#define GENCLUS_STATUS_CONCAT_INNER_(a, b) a##b
#define GENCLUS_STATUS_CONCAT_(a, b) GENCLUS_STATUS_CONCAT_INNER_(a, b)
#define GENCLUS_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                   \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).value()
