// util::Status — the durability layer's typed error model (PR 10): factory
// codes, the transient flag, printable form, and retry_with_backoff's
// retry-only-transient contract.
#include "util/status.hpp"

#include <gtest/gtest.h>

#include <string>

namespace logcc {
namespace {

using util::Status;
using util::StatusCode;

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_FALSE(s.transient());
  EXPECT_EQ(s.to_string(), "OK");
  EXPECT_TRUE(Status::ok().is_ok());
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::invalid_argument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::io_error("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::not_found("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::failed_precondition("x").code(),
            StatusCode::kFailedPrecondition);
  const Status s = Status::io_error("short write on 'edges.wal'");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.message(), "short write on 'edges.wal'");
  EXPECT_EQ(s.to_string(), "IO_ERROR: short write on 'edges.wal'");
}

TEST(Status, TransientFlagOnlyWhereRequested) {
  EXPECT_FALSE(Status::io_error("permanent").transient());
  EXPECT_TRUE(Status::io_error("EAGAIN-class", /*transient=*/true).transient());
  // Corruption is never transient: retrying a checksum mismatch cannot fix
  // the bytes on disk.
  EXPECT_FALSE(Status::corruption("bad crc").transient());
}

TEST(Status, CodeNamesAreStable) {
  // The names appear in CI logs and cc_serve stderr — they are contract.
  EXPECT_STREQ(util::to_string(StatusCode::kOk), "OK");
  EXPECT_STREQ(util::to_string(StatusCode::kIoError), "IO_ERROR");
  EXPECT_STREQ(util::to_string(StatusCode::kCorruption), "CORRUPTION");
  EXPECT_STREQ(util::to_string(StatusCode::kNotFound), "NOT_FOUND");
}

TEST(Status, RetryStopsOnFirstSuccess) {
  int calls = 0;
  const Status s = util::retry_with_backoff(
      [&]() {
        ++calls;
        return calls < 3 ? Status::io_error("busy", /*transient=*/true)
                         : Status::ok();
      },
      /*attempts=*/5, std::chrono::milliseconds(0));
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(calls, 3);
}

TEST(Status, RetryNeverRetriesPermanentErrors) {
  int calls = 0;
  const Status s = util::retry_with_backoff(
      [&]() {
        ++calls;
        return Status::io_error("fsync failed");  // permanent
      },
      /*attempts=*/5, std::chrono::milliseconds(0));
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 1) << "a permanent error must be returned immediately";
}

TEST(Status, RetryExhaustsBudgetOnPersistentTransient) {
  int calls = 0;
  const Status s = util::retry_with_backoff(
      [&]() {
        ++calls;
        return Status::io_error("still busy", /*transient=*/true);
      },
      /*attempts=*/4, std::chrono::milliseconds(0));
  EXPECT_FALSE(s.is_ok());
  EXPECT_TRUE(s.transient());
  EXPECT_EQ(calls, 4);
}

}  // namespace
}  // namespace logcc
