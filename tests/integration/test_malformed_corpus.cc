/**
 * @file
 * Malformed-input corpus: nothing crosses the trust boundary.
 *
 * Every file under tests/data/malformed/ is a hostile or corrupted
 * input for one of the three ingestion paths — market files
 * (market_*.txt), raw CSV (csv_*.csv), and profile CSV
 * (profile_*.csv). The contract under test: each produces a
 * *structured* error — classified kind, diagnostic message — and
 * never a crash, an uncaught exception, or a silently accepted value.
 * The corrupted span traces there (trace_*.jsonl) go through
 * `amdahl_market trace analyze` instead, as ctest cases defined in
 * tools/CMakeLists.txt.
 *
 * A prefix-truncation fuzz pass complements the corpus: every byte
 * prefix of a known-good document must either parse cleanly or fail
 * with a structured error, so no truncation point leaves the parser
 * in a throwing or crashing state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "common/status.hh"
#include "core/market_io.hh"
#include "profiling/profile_io.hh"

namespace amdahl {
namespace {

namespace fs = std::filesystem;

fs::path
corpusDir()
{
    return fs::path(AMDAHL_TEST_DATA_DIR) / "malformed";
}

std::vector<fs::path>
corpusFiles(const std::string &prefix)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(corpusDir())) {
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(MalformedCorpus, CorpusIsPresent)
{
    ASSERT_TRUE(fs::exists(corpusDir()))
        << "missing corpus dir " << corpusDir();
    EXPECT_GE(corpusFiles("market_").size(), 10u);
    EXPECT_GE(corpusFiles("csv_").size(), 4u);
    EXPECT_GE(corpusFiles("profile_").size(), 6u);
}

TEST(MalformedCorpus, MarketFilesProduceStructuredErrors)
{
    for (const auto &path : corpusFiles("market_")) {
        SCOPED_TRACE(path.filename().string());
        auto result = core::loadMarket(path.string());
        ASSERT_FALSE(result.ok())
            << "malformed market accepted: " << path;
        EXPECT_FALSE(result.status().message().empty());
        // Kind is one of the taxonomy's values and prints cleanly.
        EXPECT_FALSE(
            std::string(toString(result.status().kind())).empty());
    }
}

TEST(MalformedCorpus, CsvFilesProduceStructuredErrors)
{
    for (const auto &path : corpusFiles("csv_")) {
        SCOPED_TRACE(path.filename().string());
        std::ifstream in(path);
        ASSERT_TRUE(in.good());
        auto result = parseCsv(in);
        ASSERT_FALSE(result.ok()) << "malformed CSV accepted: " << path;
        EXPECT_FALSE(result.status().toString().empty());
    }
}

TEST(MalformedCorpus, ProfileFilesProduceStructuredErrors)
{
    for (const auto &path : corpusFiles("profile_")) {
        SCOPED_TRACE(path.filename().string());
        auto result =
            profiling::loadProfileCsv(path.string(), "corpus");
        ASSERT_FALSE(result.ok())
            << "malformed profile accepted: " << path;
        EXPECT_FALSE(result.status().message().empty());
    }
}

TEST(MalformedCorpus, MissingFileIsAnIoError)
{
    auto market = core::loadMarket(
        (corpusDir() / "no_such_file.txt").string());
    ASSERT_FALSE(market.ok());
    EXPECT_EQ(market.status().kind(), ErrorKind::IoError);

    auto profile = profiling::loadProfileCsv(
        (corpusDir() / "no_such_file.csv").string(), "missing");
    ASSERT_FALSE(profile.ok());
    EXPECT_EQ(profile.status().kind(), ErrorKind::IoError);
}

// --- Prefix-truncation fuzz ------------------------------------------

const char kGoodMarket[] =
    "# comment line\n"
    "servers 10 10\n"
    "user Alice budget 1.5\n"
    "job server 0 fraction 0.53 weight 2\n"
    "job server 1 fraction 0.93\n"
    "user Bob budget 1\n"
    "job server 0 fraction 0.96\n"
    "job server 1 fraction 0.68\n";

const char kGoodProfile[] =
    "dataset_gb,cores,seconds\n"
    "1.0,1,100\n"
    "1.0,2,60\n"
    "1.0,4,40\n"
    "2.0,1,210\n"
    "2.0,2,120\n"
    "2.0,4,75\n";

const char kGoodCsv[] =
    "name,\"the value\",note\n"
    "alpha,1,\"line\nbreak\"\n"
    "beta,2,\"say \"\"hi\"\"\"\n"
    "gamma,3,plain\r\n";

TEST(MalformedCorpus, EveryMarketPrefixIsOkOrStructuredError)
{
    const std::string text(kGoodMarket);
    int ok_count = 0;
    for (std::size_t n = 0; n <= text.size(); ++n) {
        auto result = core::tryParseMarketString(text.substr(0, n));
        if (result.ok()) {
            ++ok_count;
        } else {
            EXPECT_FALSE(result.status().message().empty());
        }
    }
    // The full document parses; so do prefixes ending after a
    // complete user block.
    EXPECT_GT(ok_count, 0);
    EXPECT_TRUE(core::tryParseMarketString(text).ok());
}

TEST(MalformedCorpus, EveryProfilePrefixIsOkOrStructuredError)
{
    const std::string text(kGoodProfile);
    for (std::size_t n = 0; n <= text.size(); ++n) {
        auto result = profiling::tryParseProfileCsvString(
            text.substr(0, n), "fuzz");
        if (!result.ok()) {
            EXPECT_FALSE(result.status().message().empty());
        }
    }
    EXPECT_TRUE(
        profiling::tryParseProfileCsvString(text, "fuzz").ok());
}

TEST(MalformedCorpus, EveryCsvPrefixIsOkOrStructuredError)
{
    const std::string text(kGoodCsv);
    for (std::size_t n = 0; n <= text.size(); ++n) {
        auto result = parseCsvString(text.substr(0, n));
        if (!result.ok()) {
            EXPECT_FALSE(result.status().toString().empty());
        }
    }
    EXPECT_TRUE(parseCsvString(text).ok());
}

// Single-character corruption at every position of a valid market:
// flip each byte to a hostile value and require ok-or-structured.
TEST(MalformedCorpus, SingleByteCorruptionNeverEscapes)
{
    const std::string text(kGoodMarket);
    const char hostile[] = {'\0', '"', '-', 'x', '\xff'};
    for (char c : hostile) {
        for (std::size_t pos = 0; pos < text.size(); ++pos) {
            std::string mutated = text;
            mutated[pos] = c;
            auto result = core::tryParseMarketString(mutated);
            if (!result.ok()) {
                EXPECT_FALSE(result.status().message().empty());
            }
        }
    }
}

} // namespace
} // namespace amdahl
