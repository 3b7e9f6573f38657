/**
 * @file
 * Unit tests for the logging/error-reporting facilities.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace amdahl {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input"), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("broken invariant"), PanicError);
}

TEST(Logging, FatalMessageIsPrefixedAndConcatenated)
{
    try {
        fatal("value ", 42, " is wrong");
        FAIL() << "fatal() returned";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "fatal: value 42 is wrong");
    }
}

TEST(Logging, PanicMessageIsPrefixed)
{
    try {
        panic("x=", 1.5);
        FAIL() << "panic() returned";
    } catch (const PanicError &err) {
        EXPECT_STREQ(err.what(), "panic: x=1.5");
    }
}

TEST(Logging, FatalIsARuntimeError)
{
    // Library users should be able to catch the std hierarchy.
    EXPECT_THROW(fatal("x"), std::runtime_error);
}

TEST(Logging, PanicIsALogicError)
{
    EXPECT_THROW(panic("x"), std::logic_error);
}

TEST(Logging, EnsurePassesOnTrue)
{
    EXPECT_NO_THROW(ensure(true, "never shown"));
}

TEST(Logging, EnsurePanicsOnFalse)
{
    EXPECT_THROW(ensure(false, "invariant ", 7), PanicError);
}

TEST(Logging, SetLogLevelReturnsPrevious)
{
    const LogLevel original = logLevel();
    const LogLevel before = setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(before, original);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(original);
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    const LogLevel original = setLogLevel(LogLevel::Quiet);
    EXPECT_NO_THROW(warn("suppressed warning ", 1));
    EXPECT_NO_THROW(inform("suppressed info ", 2));
    setLogLevel(original);
}

TEST(Logging, LevelFiltersWarnings)
{
    const LogLevel original = setLogLevel(LogLevel::Quiet);
    ::testing::internal::CaptureStderr();
    warn("should be suppressed");
    inform("also suppressed");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    warn("visible warning");
    inform("still suppressed");
    const std::string warn_only =
        ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warn_only.find("warn: visible warning"),
              std::string::npos);
    EXPECT_EQ(warn_only.find("info:"), std::string::npos);

    setLogLevel(LogLevel::Inform);
    ::testing::internal::CaptureStderr();
    inform("now visible");
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "info: now visible"),
              std::string::npos);
    setLogLevel(original);
}

} // namespace
} // namespace amdahl
