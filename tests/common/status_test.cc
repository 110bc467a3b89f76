#include "common/status.h"

#include <gtest/gtest.h>

namespace genclus {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NumericalError("x").code(), StatusCode::kNumericalError);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotConverged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, ResourceExhaustedRendersItsName) {
  // The serving tier's backpressure rejection; callers match on the code
  // and log the rendered string.
  EXPECT_EQ(Status::ResourceExhausted("queue full").ToString(),
            "ResourceExhausted: queue full");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, WithMessageKeepsTheCode) {
  const Status s = Status::AlreadyExists("dup").WithMessage("f:3: dup");
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(s.message(), "f:3: dup");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "missing");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailingHelper() { return Status::IoError("disk"); }

Status PropagatingFunction() {
  GENCLUS_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();  // unreachable
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  Status s = PropagatingFunction();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

Result<int> ProducesValue() { return 5; }

Result<int> ConsumesValue() {
  GENCLUS_ASSIGN_OR_RETURN(int x, ProducesValue());
  return x * 2;
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto r = ConsumesValue();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 10);
}

Result<int> ProducesError() { return Status::OutOfRange("nope"); }

Result<int> ConsumesError() {
  GENCLUS_ASSIGN_OR_RETURN(int x, ProducesError());
  return x;
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto r = ConsumesError();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusTest, DeadlineExceededFactoryAndName) {
  const Status s = Status::DeadlineExceeded("budget spent");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.message(), "budget spent");
  EXPECT_EQ(s.ToString(), "DeadlineExceeded: budget spent");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

}  // namespace
}  // namespace genclus
