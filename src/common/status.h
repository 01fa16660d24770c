// Minimal Status / Result error-handling types (RocksDB/Arrow idiom).
//
// Fallible user-facing APIs (validation, parsing, IO) return Status or
// Result<T>; internal invariants use assertions. No exceptions on hot paths.
#ifndef TPSET_COMMON_STATUS_H_
#define TPSET_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

namespace tpset {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kCorruption,
  kNotSupported,
  kIoError,
  kFailedPrecondition,
};

/// Outcome of a fallible operation: OK, or a code plus message.
class Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "unknown";
    switch (code_) {
      case StatusCode::kOk: name = "OK"; break;
      case StatusCode::kInvalidArgument: name = "InvalidArgument"; break;
      case StatusCode::kNotFound: name = "NotFound"; break;
      case StatusCode::kCorruption: name = "Corruption"; break;
      case StatusCode::kNotSupported: name = "NotSupported"; break;
      case StatusCode::kIoError: name = "IoError"; break;
      case StatusCode::kFailedPrecondition: name = "FailedPrecondition"; break;
    }
    return std::string(name) + ": " + message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value of type T or an error Status.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): ergonomic returns.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }
  /// Borrows from a refcounted result: a Result<const U*> built from a
  /// Result<std::shared_ptr<const U>> co-owns the object, so the pointer
  /// stays valid for as long as this Result (or a copy) lives. Callers
  /// written against a raw-pointer accessor stay safe when the accessor
  /// returns a refcounted object instead (QueryExecutor::Find).
  template <typename U,
            typename = std::enable_if_t<std::is_same_v<T, const U*>>>
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Result<std::shared_ptr<const U>> shared) : status_(shared.status()) {
    if (!ok()) return;
    std::shared_ptr<const U> object = std::move(shared).value();
    value_ = object.get();
    owner_ = std::move(object);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
  /// Set only by the borrowing constructor: keeps value_'s pointee alive.
  std::shared_ptr<const void> owner_;
};

/// Propagates a non-OK status to the caller.
#define TPSET_RETURN_NOT_OK(expr)              \
  do {                                         \
    ::tpset::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (false)

}  // namespace tpset

#endif  // TPSET_COMMON_STATUS_H_
