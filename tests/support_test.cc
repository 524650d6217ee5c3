#include <gtest/gtest.h>

#include "support/logging.h"
#include "support/status.h"
#include "support/strings.h"

namespace overlap {
namespace {

TEST(StatusTest, OkByDefault)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kOk);
    EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage)
{
    Status s = InvalidArgument("bad shape");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad shape");
    EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
    EXPECT_EQ(FailedPrecondition("x").code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValueOrStatus)
{
    StatusOr<int> ok(42);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(*ok, 42);
    StatusOr<int> err(InvalidArgument("nope"));
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
    EXPECT_THROW(err.value(), std::logic_error);
}

TEST(StatusOrTest, ValueThrowCarriesStatusMessage)
{
    StatusOr<int> err(Internal("ring schedule corrupted"));
    try {
        err.value();
        FAIL() << "value() on an error must throw std::logic_error";
    } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("ring schedule corrupted"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("INTERNAL"), std::string::npos);
    }
}

#if OVERLAP_CHECKS_ENABLED
TEST(CheckTest, FailedCheckThrowsLogicErrorWithLocation)
{
    try {
        OVERLAP_CHECK(1 + 1 == 3);
        FAIL() << "OVERLAP_CHECK must throw std::logic_error on failure";
    } catch (const std::logic_error& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos);
        EXPECT_NE(what.find("support_test.cc"), std::string::npos);
    }
}
#else
TEST(CheckTest, DisabledCheckIsANoOpAndNeverEvaluates)
{
    // Release builds (no sanitizers) compile OVERLAP_CHECK out entirely:
    // no throw, and the condition expression is never evaluated.
    int evaluations = 0;
    EXPECT_NO_THROW(OVERLAP_CHECK(++evaluations > 0 && false));
    EXPECT_EQ(evaluations, 0);
}
#endif

TEST(CheckTest, PassingCheckIsSilent)
{
    EXPECT_NO_THROW(OVERLAP_CHECK(2 + 2 == 4));
}

TEST(StatusOrTest, MoveOutValue)
{
    StatusOr<std::string> s(std::string("hello"));
    std::string moved = std::move(s).value();
    EXPECT_EQ(moved, "hello");
}

TEST(StringsTest, StrJoinAndStrCat)
{
    std::vector<int> v{1, 2, 3};
    EXPECT_EQ(StrJoin(v, ","), "1,2,3");
    EXPECT_EQ(StrJoin(std::vector<int>{}, ","), "");
    EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
}

TEST(StringsTest, StrSplitKeepsEmptyFields)
{
    auto parts = StrSplit("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(StrSplit("", ',').size(), 1u);
}

TEST(StringsTest, JsonEscapeEscapesQuotesAndBackslashes)
{
    EXPECT_EQ(JsonEscape("all-gather.3"), "all-gather.3");
    EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(StringsTest, HumanFormats)
{
    EXPECT_EQ(HumanBytes(1536.0), "1.50 KB");
    EXPECT_EQ(HumanTime(0.0015), "1.500 ms");
    EXPECT_EQ(HumanTime(2.0), "2.000 s");
    EXPECT_EQ(HumanTime(2.5e-6), "2.500 us");
    EXPECT_EQ(HumanFlops(2.4e12), "2.40 TFLOP");
}

TEST(StringsTest, ParseWholeAcceptsOnlyWholeIntegers)
{
    EXPECT_EQ(ParseWhole<int64_t>("42"), 42);
    EXPECT_EQ(ParseWhole<int64_t>("-3"), -3);
    EXPECT_EQ(ParseWhole<int64_t>("4x"), std::nullopt);
    EXPECT_EQ(ParseWhole<int64_t>("abc"), std::nullopt);
    EXPECT_EQ(ParseWhole<int64_t>(""), std::nullopt);
    EXPECT_EQ(ParseWhole<int64_t>(" 4"), std::nullopt);
    EXPECT_EQ(ParseWhole<uint64_t>("-1"), std::nullopt);
}

TEST(StringsTest, ParseFlagEnforcesTheMinimum)
{
    EXPECT_EQ(ParseFlag<int64_t>("--threads", "4", 1), 4);
    EXPECT_EQ(ParseFlag<int64_t>("--threads", "1", 1), 1);
    EXPECT_EQ(ParseFlag<int64_t>("--threads", "0", 1), std::nullopt);
    EXPECT_EQ(ParseFlag<int64_t>("--threads", "4x", 1), std::nullopt);
}

TEST(LoggingTest, LevelGatesOutput)
{
    LogLevel old = GetLogLevel();
    SetLogLevel(LogLevel::kError);
    // No crash, message dropped below threshold.
    OVERLAP_LOG(kInfo) << "dropped";
    OVERLAP_LOG(kError) << "kept (stderr)";
    SetLogLevel(old);
    SUCCEED();
}

}  // namespace
}  // namespace overlap
