// Status / Result error-handling types.
#include <gtest/gtest.h>

#include "common/status.h"

namespace tpset {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FailedPrecondition: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status Helper(bool fail) {
  TPSET_RETURN_NOT_OK(fail ? Status::IoError("inner") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_TRUE(Helper(false).ok());
  EXPECT_EQ(Helper(true).code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace tpset
