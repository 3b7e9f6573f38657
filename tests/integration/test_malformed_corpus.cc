/**
 * @file
 * Malformed-input corpus: nothing crosses the trust boundary.
 *
 * Every market file under tests/data/malformed/ (market_*.txt) is a
 * hostile or corrupted input to the market parser. The contract under
 * test: each produces a *structured* error — classified kind,
 * diagnostic message — and never a crash, an uncaught exception, or a
 * silently accepted value. The corrupted span traces there
 * (trace_*.jsonl) go through `amdahl_market trace analyze` instead, as
 * ctest cases defined in tools/CMakeLists.txt.
 *
 * A prefix-truncation fuzz pass complements the corpus: every byte
 * prefix of a known-good document must either parse cleanly or fail
 * with a structured error, so no truncation point leaves the parser
 * in a throwing or crashing state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/status.hh"
#include "core/market_io.hh"

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

TEST(MalformedCorpus, MissingFileIsAnIoError)
{
    auto market = core::loadMarket(
        (corpusDir() / "no_such_file.txt").string());
    ASSERT_FALSE(market.ok());
    EXPECT_EQ(market.status().kind(), ErrorKind::IoError);
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
