/**
 * @file
 * Unit tests for market-file parsing and serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "core/market_io.hh"

namespace amdahl::core {
namespace {

constexpr const char *aliceBobFile = R"(# the paper's example
servers 10 10
user Alice budget 1
job server 0 fraction 0.53
job server 1 fraction 0.93
user Bob budget 1
job server 0 fraction 0.96 weight 2
job server 1 fraction 0.68
)";

TEST(MarketIo, ParsesTheExampleFile)
{
    const auto market = parseMarketString(aliceBobFile);
    EXPECT_EQ(market.serverCount(), 2u);
    EXPECT_EQ(market.userCount(), 2u);
    EXPECT_EQ(market.user(0).name, "Alice");
    EXPECT_DOUBLE_EQ(market.user(0).budget, 1.0);
    ASSERT_EQ(market.user(1).jobs.size(), 2u);
    EXPECT_DOUBLE_EQ(market.user(1).jobs[0].parallelFraction, 0.96);
    EXPECT_DOUBLE_EQ(market.user(1).jobs[0].weight, 2.0);
    EXPECT_NO_THROW(market.validate());
}

TEST(MarketIo, CommentsAndBlankLinesIgnored)
{
    const auto market = parseMarketString(
        "\n# header\nservers 4\n\nuser u budget 2  # inline\n"
        "job server 0 fraction 0.5\n\n");
    EXPECT_EQ(market.userCount(), 1u);
    EXPECT_DOUBLE_EQ(market.user(0).budget, 2.0);
}

TEST(MarketIo, AnonymousUserAndDefaultBudget)
{
    const auto market = parseMarketString(
        "servers 4\nuser\njob server 0 fraction 0.5\n");
    EXPECT_TRUE(market.user(0).name.empty());
    EXPECT_DOUBLE_EQ(market.user(0).budget, 1.0);
}

TEST(MarketIo, JobKeysInAnyOrder)
{
    const auto market = parseMarketString(
        "servers 4\nuser u\n"
        "job fraction 0.7 weight 3 server 0\n");
    EXPECT_DOUBLE_EQ(market.user(0).jobs[0].parallelFraction, 0.7);
    EXPECT_DOUBLE_EQ(market.user(0).jobs[0].weight, 3.0);
}

TEST(MarketIo, RoundTripsThroughWrite)
{
    const auto market = parseMarketString(aliceBobFile);
    std::ostringstream os;
    writeMarket(os, market);
    const auto reparsed = parseMarketString(os.str());
    ASSERT_EQ(reparsed.userCount(), market.userCount());
    ASSERT_EQ(reparsed.serverCount(), market.serverCount());
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        EXPECT_EQ(reparsed.user(i).name, market.user(i).name);
        EXPECT_DOUBLE_EQ(reparsed.user(i).budget,
                         market.user(i).budget);
        ASSERT_EQ(reparsed.user(i).jobs.size(),
                  market.user(i).jobs.size());
        for (std::size_t k = 0; k < market.user(i).jobs.size(); ++k) {
            EXPECT_EQ(reparsed.user(i).jobs[k].server,
                      market.user(i).jobs[k].server);
            EXPECT_DOUBLE_EQ(
                reparsed.user(i).jobs[k].parallelFraction,
                market.user(i).jobs[k].parallelFraction);
            EXPECT_DOUBLE_EQ(reparsed.user(i).jobs[k].weight,
                             market.user(i).jobs[k].weight);
        }
    }
}

TEST(MarketIo, ErrorsCarryLineNumbers)
{
    try {
        parseMarketString("servers 4\nuser u\njob server 0\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(MarketIo, RejectsMalformedInput)
{
    EXPECT_THROW(parseMarketString(""), FatalError);
    EXPECT_THROW(parseMarketString("servers\n"), FatalError);
    EXPECT_THROW(parseMarketString("servers 4\n"), FatalError);
    EXPECT_THROW(parseMarketString("user u\n"), FatalError);
    EXPECT_THROW(
        parseMarketString("servers 4\njob server 0 fraction 0.5\n"),
        FatalError);
    EXPECT_THROW(parseMarketString("servers 4\nservers 4\nuser u\n"
                                   "job server 0 fraction 0.5\n"),
                 FatalError);
    EXPECT_THROW(parseMarketString("servers 4\nbogus\n"), FatalError);
    EXPECT_THROW(parseMarketString("servers x\n"), FatalError);
    EXPECT_THROW(
        parseMarketString(
            "servers 4\nuser u\njob server 0 fraction abc\n"),
        FatalError);
    EXPECT_THROW(
        parseMarketString(
            "servers 4\nuser u\njob server 0 fraction 0.5 oops 1\n"),
        FatalError);
}

TEST(MarketIo, OutOfRangeValuesRejectedByMarket)
{
    // Parsing delegates semantic validation to FisherMarket.
    EXPECT_THROW(
        parseMarketString(
            "servers 4\nuser u\njob server 9 fraction 0.5\n"),
        FatalError);
    EXPECT_THROW(
        parseMarketString(
            "servers 4\nuser u budget -1\njob server 0 fraction 0.5\n"),
        FatalError);
}

/*
 * Tokenizer parity: the line splitter must behave exactly like
 * `operator>>` in the C locale — whitespace is " \t\n\v\f\r", every
 * other byte belongs to a token, and a token starting with '#' ends
 * the line — with every Status (kind, line, message) unchanged.
 */

void
expectError(const std::string &text, ErrorKind kind, int line,
            const std::string &message)
{
    const auto result = tryParseMarketString(text);
    ASSERT_FALSE(result.ok()) << "accepted: " << text;
    EXPECT_EQ(result.status().kind(), kind);
    EXPECT_EQ(result.status().line(), line);
    EXPECT_EQ(result.status().message(), message);
}

TEST(MarketIoTokenizer, TabsSeparateTokens)
{
    const auto market = parseMarketString(
        "servers\t4\t\t6\nuser\tu\tbudget\t2\n"
        "\tjob\tserver\t1\tfraction\t0.5\t\n");
    EXPECT_EQ(market.capacities(), (std::vector<double>{4.0, 6.0}));
    EXPECT_EQ(market.user(0).name, "u");
    EXPECT_EQ(market.user(0).budget, 2.0);
    EXPECT_EQ(market.user(0).jobs[0].server, 1u);
}

TEST(MarketIoTokenizer, CrlfLineEndings)
{
    const auto market = parseMarketString(
        "servers 4\r\nuser u budget 2\r\n"
        "job server 0 fraction 0.5\r\n\r\n");
    EXPECT_EQ(market.user(0).name, "u");
    EXPECT_EQ(market.user(0).budget, 2.0);
    EXPECT_EQ(market.user(0).jobs[0].parallelFraction, 0.5);
    expectError("servers 4\r\nuser u budget x\r\n", ErrorKind::ParseError,
                2, "expected a number for a budget, got 'x'");
}

TEST(MarketIoTokenizer, VerticalTabAndFormFeed)
{
    const auto market = parseMarketString(
        "servers\v4\f6\n\fuser u\vbudget 3\n"
        "job server\f1\vfraction 0.25\v\f\n");
    EXPECT_EQ(market.serverCount(), 2u);
    EXPECT_EQ(market.user(0).budget, 3.0);
    EXPECT_EQ(market.user(0).jobs[0].server, 1u);
    EXPECT_EQ(market.user(0).jobs[0].parallelFraction, 0.25);
}

TEST(MarketIoTokenizer, CommentAfterTokensEndsTheLine)
{
    const auto market = parseMarketString(
        "servers 4 # 5 6\nuser u #budget 5\n"
        "job server 0 fraction 0.5\t# weight x\n");
    EXPECT_EQ(market.serverCount(), 1u);
    EXPECT_EQ(market.user(0).budget, 1.0);
    EXPECT_EQ(market.user(0).jobs[0].weight, 1.0);
}

TEST(MarketIoTokenizer, HashInsideATokenIsNotAComment)
{
    expectError("servers 5#x\n", ErrorKind::ParseError, 1,
                "expected a number for a capacity, got '5#x'");
    expectError("servers 4\nuser u\njob server 0 fraction 0.5#x\n",
                ErrorKind::ParseError, 3,
                "expected a number for a fraction, got '0.5#x'");
    expectError("servers 4\nuser#1 u\n", ErrorKind::ParseError, 2,
                "unknown keyword 'user#1'");
}

TEST(MarketIoTokenizer, BlankAndCommentOnlyLinesCountButAreSkipped)
{
    expectError("\n   \n\t\n# header\n  # indented\nservers 4\n\r\n#\n"
                "user u\njob server 0 fraction 0.5\nbogus 1\n",
                ErrorKind::ParseError, 11, "unknown keyword 'bogus'");
    expectError("# only comments\n\n\t\n", ErrorKind::SemanticError, 3,
                "market file has no 'servers' line");
}

TEST(MarketIoTokenizer, OtherBytesAreTokenBytes)
{
    // Not whitespace in the C locale: NBSP (0xa0), NUL.
    expectError("servers\xa0" "4\n", ErrorKind::ParseError, 1,
                "unknown keyword 'servers\xa0" "4'");
    const std::string nul("4\0x", 3);
    expectError("servers " + nul + "\n", ErrorKind::ParseError, 1,
                "expected a number for a capacity, got '" + nul + "'");
}

TEST(MarketIoTokenizer, DuplicateServerJobsArePerUser)
{
    const std::string twoUsers = "servers 4 4\nuser a\n"
                                 "job server 0 fraction 0.5\n"
                                 "user b\njob server 0 fraction 0.5\n";
    EXPECT_EQ(parseMarketString(twoUsers).userCount(), 2u);
    const std::string duplicate = "servers 4 4\nuser a\n"
                                  "job server 1 fraction 0.5\n"
                                  "job server 0 fraction 0.5\n"
                                  "job server 1 fraction 0.7\n";
    expectError(duplicate, ErrorKind::SemanticError, 5,
                "user 'a' already has a job on server 1; one job per "
                "(user, server) pair — merge the work or raise the "
                "weight");
    MarketParseOptions lenient;
    lenient.rejectDuplicateServerJobs = false;
    const auto market = tryParseMarketString(duplicate, lenient);
    ASSERT_TRUE(market.ok());
    EXPECT_EQ(market.value().user(0).jobs.size(), 3u);
}

} // namespace
} // namespace amdahl::core
