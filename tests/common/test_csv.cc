/**
 * @file
 * Unit tests for the CSV writer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.hh"
#include "common/logging.hh"

namespace amdahl {
namespace {

TEST(Csv, WritesHeaderOnConstruction)
{
    std::ostringstream os;
    CsvWriter csv(os, {"a", "b"});
    EXPECT_EQ(os.str(), "a,b\n");
}

TEST(Csv, WritesRows)
{
    std::ostringstream os;
    CsvWriter csv(os, {"x", "y"});
    csv.writeRow({"1", "2"});
    csv.writeRow({"3", "4"});
    EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
    EXPECT_EQ(csv.rowsWritten(), 2u);
}

TEST(Csv, RejectsEmptyHeader)
{
    std::ostringstream os;
    EXPECT_THROW(CsvWriter(os, {}), FatalError);
}

TEST(Csv, RejectsWrongArity)
{
    std::ostringstream os;
    CsvWriter csv(os, {"a", "b"});
    EXPECT_THROW(csv.writeRow({"only one"}), FatalError);
}

TEST(Csv, EscapePassesPlainFields)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(Csv, EscapeQuotesCommas)
{
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
}

TEST(Csv, EscapeDoublesEmbeddedQuotes)
{
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, EscapeQuotesNewlines)
{
    EXPECT_EQ(CsvWriter::escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, RowWithSpecialCharactersRoundTrips)
{
    std::ostringstream os;
    CsvWriter csv(os, {"c"});
    csv.writeRow({"v1,v2"});
    EXPECT_EQ(os.str(), "c\n\"v1,v2\"\n");
}

} // namespace
} // namespace amdahl
