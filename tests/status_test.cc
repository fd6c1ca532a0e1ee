#include "util/status.h"

#include <gtest/gtest.h>

#include "service/admission_status.h"

namespace hcpath {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, FactoryFunctionsCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::InvalidArgument("bad k").message(), "bad k");
}

TEST(Status, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::NotFound("missing").ToString(), "NotFound: missing");
}

TEST(Status, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOr, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status Chained(int x) {
  HCPATH_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusMacros, ReturnNotOkPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_EQ(Chained(-1).code(), StatusCode::kOutOfRange);
}

TEST(Status, NewCodesCarryCodeAndName) {
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Unavailable("gone").ToString(), "Unavailable: gone");
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "DeadlineExceeded: late");
}

TEST(Status, RetryableClassification) {
  // Transient system state: pressure drains, shards heal, deadlines can be
  // re-issued.
  EXPECT_TRUE(Status::ResourceExhausted("x").retryable());
  EXPECT_TRUE(Status::Unavailable("x").retryable());
  EXPECT_TRUE(Status::DeadlineExceeded("x").retryable());
  // Properties of the request / durable state: deterministic on retry.
  EXPECT_FALSE(Status::InvalidArgument("x").retryable());
  EXPECT_FALSE(Status::NotFound("x").retryable());
  EXPECT_FALSE(Status::OutOfRange("x").retryable());
  EXPECT_FALSE(Status::FailedPrecondition("x").retryable());
  EXPECT_FALSE(Status::Internal("x").retryable());
  EXPECT_FALSE(Status::IOError("x").retryable());
  // OK is not "retryable": there is nothing to retry.
  EXPECT_FALSE(Status::OK().retryable());
  EXPECT_FALSE(StatusCodeRetryable(StatusCode::kOk));
}

TEST(AdmissionStatus, CanonicalConstructorsKeepLegacyMessages) {
  const Status full = QueueFullStatus(12, 3456);
  EXPECT_TRUE(IsQueueFull(full));
  EXPECT_TRUE(full.retryable());
  EXPECT_EQ(full.message(),
            "admission queue full: 12 queries / 3456 bytes queued");

  const Status shed = ShedStatus("tenant-a", 2.0);
  EXPECT_TRUE(IsShed(shed));
  EXPECT_TRUE(shed.retryable());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

  const Status down = ShuttingDownStatus();
  EXPECT_FALSE(down.retryable());
  EXPECT_EQ(down.message(), "PathEngine is shutting down");
}

TEST(AdmissionStatus, ShardedDispatchOutcomes) {
  const Status un = ShardUnavailableStatus(2, "crashed mid-dispatch");
  EXPECT_TRUE(IsShardUnavailable(un));
  EXPECT_TRUE(un.retryable());
  EXPECT_EQ(un.message(), "shard 2 unavailable: crashed mid-dispatch");

  const Status dl = QueryDeadlineStatus(1.5);
  EXPECT_TRUE(IsQueryDeadline(dl));
  EXPECT_TRUE(dl.retryable());
  EXPECT_EQ(dl.code(), StatusCode::kDeadlineExceeded);

  // Recognizers demand both the code and the prefix: a hand-rolled status
  // with the wrong code must not match.
  EXPECT_FALSE(IsShardUnavailable(Status::Internal("shard 2 unavailable: x")));
  EXPECT_FALSE(IsQueueFull(Status::Internal("admission queue full: x")));
}

}  // namespace
}  // namespace hcpath
