// Typed error returns for the durability layer (docs/ARCHITECTURE.md
// "Durability & fault tolerance").
//
// The library's LOGCC_CHECK macros are programmer-error guards: they abort,
// because a violated invariant means the process state is untrustworthy.
// I/O failures are different — a full disk, a failed fsync, or a torn log
// tail are *environment* errors a serving process must survive and report.
// Every fallible path in serve/wal, serve/checkpoint and the engine's
// durability hooks returns a Status instead of aborting.
//
// Transient vs permanent: a Status can be marked transient (EINTR/EAGAIN
// class failures, injected "once" failpoints). retry_with_backoff() retries
// exactly those; permanent errors (corruption, ENOSPC, failed fsync) are
// returned to the caller immediately — retrying a failed fsync would hide
// data loss, not fix it.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>

namespace logcc::util {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,  // caller misuse detectable at the API boundary
  kIoError,          // open/read/write/fsync/rename failure (errno attached)
  kCorruption,       // checksum mismatch, bad magic, impossible field
  kNotFound,         // expected file absent (recovery treats as "start fresh")
  kFailedPrecondition,  // object state forbids the operation
};

const char* to_string(StatusCode code);

class Status {
 public:
  /// Default is OK — `return {};` reads as success.
  Status() = default;

  static Status ok() { return {}; }
  static Status invalid_argument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status io_error(std::string msg, bool transient = false) {
    return Status(StatusCode::kIoError, std::move(msg), transient);
  }
  static Status corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status not_found(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status failed_precondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  /// True when a bounded retry is a sensible response (EINTR/EAGAIN class).
  bool transient() const { return transient_; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "IO_ERROR: short write on 'edges.wal'" — for logs and test output.
  std::string to_string() const {
    if (is_ok()) return "OK";
    std::string s = logcc::util::to_string(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

 private:
  Status(StatusCode code, std::string message, bool transient = false)
      : code_(code), message_(std::move(message)), transient_(transient) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  bool transient_ = false;
};

inline const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kIoError: return "IO_ERROR";
    case StatusCode::kCorruption: return "CORRUPTION";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
  }
  return "?";
}

/// Runs `fn` up to `attempts` times, sleeping `base_delay` doubled per
/// retry between attempts, while the returned Status is transient(). The
/// first OK or non-transient Status is returned as-is; a still-transient
/// final attempt's Status is returned after the budget runs out.
inline Status retry_with_backoff(
    const std::function<Status()>& fn, int attempts = 3,
    std::chrono::milliseconds base_delay = std::chrono::milliseconds(1)) {
  Status s;
  auto delay = base_delay;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    s = fn();
    if (s.is_ok() || !s.transient()) return s;
    if (attempt + 1 < attempts) {
      std::this_thread::sleep_for(delay);
      delay *= 2;
    }
  }
  return s;
}

}  // namespace logcc::util
