/**
 * @file
 * Unit tests for the CSV writer and the validated reader.
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

// --- Reader ----------------------------------------------------------

TEST(CsvReader, ParsesPlainTable)
{
    auto result = parseCsvString("a,b,c\n1,2,3\n4,5,6\n");
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const auto table = result.take();
    EXPECT_EQ(table.header,
              (std::vector<std::string>{"a", "b", "c"}));
    ASSERT_EQ(table.rows.size(), 2u);
    EXPECT_EQ(table.rows[1],
              (std::vector<std::string>{"4", "5", "6"}));
    EXPECT_EQ(table.columnIndex("b"), 1u);
    EXPECT_EQ(table.columnIndex("missing"), CsvTable::npos);
}

TEST(CsvReader, HandlesQuotesCrlfAndEmbeddedNewlines)
{
    auto result = parseCsvString(
        "h1,h2\r\n\"a,b\",\"line\nbreak\"\r\n\"say \"\"hi\"\"\",x\n");
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const auto table = result.take();
    ASSERT_EQ(table.rows.size(), 2u);
    EXPECT_EQ(table.rows[0][0], "a,b");
    EXPECT_EQ(table.rows[0][1], "line\nbreak");
    EXPECT_EQ(table.rows[1][0], "say \"hi\"");
}

TEST(CsvReader, SkipsBlankLines)
{
    auto result = parseCsvString("a\n\n1\n\n2\n\n");
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST(CsvReader, EmptyInputIsParseError)
{
    auto result = parseCsvString("");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().kind(), ErrorKind::ParseError);
}

TEST(CsvReader, UnterminatedQuoteIsParseErrorWithLine)
{
    auto result = parseCsvString("a,b\n1,\"oops\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().kind(), ErrorKind::ParseError);
    EXPECT_EQ(result.status().line(), 2);
}

TEST(CsvReader, DataAfterClosingQuoteIsParseError)
{
    auto result = parseCsvString("a,b\n\"closed\" smuggled,2\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().kind(), ErrorKind::ParseError);
}

TEST(CsvReader, QuoteMidFieldIsParseError)
{
    auto result = parseCsvString("a\nval\"ue\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().kind(), ErrorKind::ParseError);
}

TEST(CsvReader, RaggedRowIsSemanticError)
{
    auto strict = parseCsvString("a,b\n1,2,3\n");
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().kind(), ErrorKind::SemanticError);
    EXPECT_EQ(strict.status().line(), 2);
}

TEST(CsvReader, RowCapIsSemanticError)
{
    CsvParseOptions opts;
    opts.maxRows = 2;
    auto result = parseCsvString("a\n1\n2\n3\n", opts);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().kind(), ErrorKind::SemanticError);
}

TEST(CsvReader, WriterOutputRoundTrips)
{
    std::ostringstream os;
    CsvWriter csv(os, {"k", "v"});
    csv.writeRow({"plain", "a,b"});
    csv.writeRow({"quoted \"q\"", "multi\nline"});
    auto result = parseCsvString(os.str());
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const auto table = result.take();
    ASSERT_EQ(table.rows.size(), 2u);
    EXPECT_EQ(table.rows[0][1], "a,b");
    EXPECT_EQ(table.rows[1][0], "quoted \"q\"");
    EXPECT_EQ(table.rows[1][1], "multi\nline");
}

} // namespace
} // namespace amdahl
