// Lightweight status / error propagation for SpaceFusion.
//
// The compiler pipeline has many fallible stages (slicing may fail, SMGs may
// be unschedulable). We propagate these as values rather than exceptions so
// that "scheduling failure" — an expected outcome that drives the
// partitioning state machine (paper Sec. 5.2) — stays on the normal control
// path.
#ifndef SPACEFUSION_SRC_SUPPORT_STATUS_H_
#define SPACEFUSION_SRC_SUPPORT_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace spacefusion {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // caller error: malformed graph, bad config
  kUnschedulable,      // expected: SMG cannot be scheduled under resources
  kUnsupported,        // operator / pattern outside the implemented scope
  kInternal,           // invariant violation (a bug)
  kNotFound,
  kDataLoss,           // persisted artifact truncated / corrupted / stale
};

// Human-readable name of a status code, e.g. "UNSCHEDULABLE".
const char* StatusCodeName(StatusCode code);

// A success-or-error result without a payload.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Formats as "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status Unschedulable(std::string msg) {
  return Status(StatusCode::kUnschedulable, std::move(msg));
}
inline Status Unsupported(std::string msg) {
  return Status(StatusCode::kUnsupported, std::move(msg));
}
inline Status Internal(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
inline Status NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status DataLoss(std::string msg) {
  return Status(StatusCode::kDataLoss, std::move(msg));
}

// A value-or-error result. Minimal analogue of absl::StatusOr.
template <typename T>
class StatusOr {
 public:
  StatusOr(const T& value) : value_(value) {}          // NOLINT(runtime/explicit)
  StatusOr(T&& value) : value_(std::move(value)) {}    // NOLINT(runtime/explicit)
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return status_.ok() && value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagates a non-OK status out of the current function.
#define SF_RETURN_IF_ERROR(expr)          \
  do {                                    \
    ::spacefusion::Status _st = (expr);   \
    if (!_st.ok()) {                      \
      return _st;                         \
    }                                     \
  } while (0)

// Assigns the value of a StatusOr expression or propagates its error.
#define SF_STATUS_CONCAT_INNER(a, b) a##b
#define SF_STATUS_CONCAT(a, b) SF_STATUS_CONCAT_INNER(a, b)
#define SF_ASSIGN_OR_RETURN(lhs, expr) \
  SF_ASSIGN_OR_RETURN_IMPL(SF_STATUS_CONCAT(_sf_statusor_, __LINE__), lhs, expr)
#define SF_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                             \
  if (!tmp.ok()) {                               \
    return tmp.status();                         \
  }                                              \
  lhs = std::move(tmp).value()

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SUPPORT_STATUS_H_
