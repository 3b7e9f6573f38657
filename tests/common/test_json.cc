/**
 * @file
 * Unit tests for the shared JSON helpers (common/json.hh) — the one
 * escaping/formatting implementation behind TablePrinter::writeJson,
 * the metrics exporters, and the trace sink — and for the reader that
 * must read back exactly what they write.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/table.hh"

namespace amdahl {
namespace {

TEST(Json, EscapesQuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("plain"), "\"plain\"");
    EXPECT_EQ(jsonEscape("say \"hi\""), "\"say \\\"hi\\\"\"");
    EXPECT_EQ(jsonEscape("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(jsonEscape("C:\\path\\\"x\""),
              "\"C:\\\\path\\\\\\\"x\\\"\"");
}

TEST(Json, EscapesControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(jsonEscape("a\tb"), "\"a\\tb\"");
    EXPECT_EQ(jsonEscape("a\rb"), "\"a\\rb\"");
    // Other C0 controls take the \u00XX form.
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\"\\u0001\"");
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\"\\u001f\"");
    // 0x7f and non-ASCII bytes pass through untouched.
    EXPECT_EQ(jsonEscape("\x7f"), "\"\x7f\"");
}

TEST(Json, AppendVariantMatchesEscape)
{
    std::string out = "prefix:";
    appendJsonEscaped(out, "a\"b");
    EXPECT_EQ(out, "prefix:\"a\\\"b\"");
}

TEST(Json, NumberNonFiniteIsNull)
{
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
}

TEST(Json, NumberIntegersStayIntegers)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(60.0), "60");
    EXPECT_EQ(jsonNumber(-17.0), "-17");
    EXPECT_EQ(jsonNumber(1e6), "1000000");
}

TEST(Json, NumberRoundTripsExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 3.8593122034517444e-12, -2.5,
                     1e300, 5e-324}) {
        const std::string text = jsonNumber(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v)
            << "round-trip failed for " << text;
    }
}

TEST(Json, NumberPrefersShortForm)
{
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
}

TEST(Json, TablePrinterUsesSharedEscaping)
{
    TablePrinter t;
    t.addColumn("name", TablePrinter::Align::Left);
    t.addColumn("value");
    t.addRow({"quote\"backslash\\", "1"});
    std::ostringstream os;
    EXPECT_TRUE(t.writeJson(os).isOk());
    const std::string out = os.str();
    EXPECT_NE(out.find("quote\\\"backslash\\\\"), std::string::npos)
        << out;
}

/** Parse @p text, failing the test on a rejection. */
JsonObject
parsed(const std::string &text)
{
    auto result = parseJsonObject(text);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status().toString();
    return result.ok() ? result.take() : JsonObject{};
}

/** @return The rejection message for @p text, "" when accepted. */
std::string
rejection(const std::string &text)
{
    auto result = parseJsonObject(text, 7);
    if (result.ok())
        return "";
    EXPECT_EQ(result.status().kind(), ErrorKind::ParseError) << text;
    EXPECT_EQ(result.status().line(), 7) << text;
    return result.status().message();
}

TEST(JsonReader, IntegersKeepEveryBit)
{
    const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
    const std::int64_t low = std::numeric_limits<std::int64_t>::min();
    const JsonObject o = parsed("{\"a\":" + std::to_string(big) +
                                ",\"b\":" + std::to_string(low) +
                                ",\"c\":-17,\"d\":0}");
    ASSERT_NE(o.get<std::uint64_t>("a"), nullptr);
    EXPECT_EQ(*o.get<std::uint64_t>("a"), big);
    ASSERT_NE(o.get<std::int64_t>("b"), nullptr);
    EXPECT_EQ(*o.get<std::int64_t>("b"), low);
    EXPECT_EQ(*o.get<std::int64_t>("c"), -17);
    EXPECT_EQ(*o.get<std::uint64_t>("d"), 0u);
    // 2^53 + 1 is where a double reader would start rounding.
    EXPECT_EQ(*parsed("{\"id\":9007199254740993}").get<std::uint64_t>("id"),
              9007199254740993u);
}

TEST(JsonReader, DoublesRoundTripBitForBit)
{
    for (double v : {0.1, 1.0 / 3.0, 3.8593122034517444e-12, -2.5, 1e300,
                     5e-324, 1e15 + 0.5, -1e-300, 6.02e23}) {
        const std::string text = "{\"v\":" + jsonNumber(v) + "}";
        const JsonObject o = parsed(text);
        ASSERT_NE(o.get<double>("v"), nullptr) << text;
        const double back = *o.get<double>("v");
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text;
    }
    // Integral doubles are written as integer tokens, and read as such.
    EXPECT_EQ(*parsed("{\"v\":" + jsonNumber(60.0) + "}")
                   .get<std::uint64_t>("v"),
              60u);
    EXPECT_EQ(*parsed("{\"v\":2.5E+3}").get<double>("v"), 2500.0);
}

TEST(JsonReader, StringsRoundTripEveryEscape)
{
    std::string all;
    for (int ch = 0; ch < 0x80; ++ch)
        all += static_cast<char>(ch);
    all += "\xc3\xa9\xff"; // bytes >= 0x80 are written raw
    std::string text = "{";
    appendJsonEscaped(text, "s");
    text += ':';
    appendJsonEscaped(text, all);
    text += '}';
    const JsonObject o = parsed(text);
    ASSERT_NE(o.get<std::string>("s"), nullptr);
    EXPECT_EQ(*o.get<std::string>("s"), all);
    // Escapes the emitter never writes are still JSON.
    EXPECT_EQ(*parsed(R"({"s":"\/\b\f\u0041"})").get<std::string>("s"),
              "/\b\fA");
}

TEST(JsonReader, LiteralsAndLayout)
{
    const JsonObject o =
        parsed(" { \"t\" : true , \"f\":false,\"n\":null,\"e\":\"\"} ");
    EXPECT_TRUE(*o.get<bool>("t"));
    EXPECT_FALSE(*o.get<bool>("f"));
    EXPECT_NE(o.get<std::nullptr_t>("n"), nullptr);
    EXPECT_EQ(*o.get<std::string>("e"), "");
    EXPECT_EQ(o.find("missing"), nullptr);
    EXPECT_EQ(o.get<std::string>("t"), nullptr); // wrong type
    ASSERT_EQ(o.members.size(), 4u);
    EXPECT_EQ(o.members[0].first, "t"); // document order
    EXPECT_TRUE(parsed("{}").members.empty());
}

TEST(JsonReader, ReadsWhatTheTraceSinkWrites)
{
    std::string line = "{\"seq\":3,\"ev\":";
    appendJsonEscaped(line, "log");
    line += ",\"message\":" + jsonEscape("a \"quoted\"\tline\n") +
            ",\"delta\":" + jsonNumber(0.125) + "}";
    const JsonObject o = parsed(line);
    EXPECT_EQ(*o.get<std::uint64_t>("seq"), 3u);
    EXPECT_EQ(*o.get<std::string>("message"), "a \"quoted\"\tline\n");
    EXPECT_EQ(*o.get<double>("delta"), 0.125);
}

TEST(JsonReader, RejectsWhatItCannotReadExactly)
{
    EXPECT_NE(rejection(R"({"a":{"b":1}})").find("nested"),
              std::string::npos);
    EXPECT_NE(rejection(R"({"a":[1]})").find("nested"), std::string::npos);
    EXPECT_NE(rejection(R"({"a":1} x)").find("trailing"),
              std::string::npos);
    EXPECT_NE(rejection(R"({"a":1}{})").find("trailing"),
              std::string::npos);
    EXPECT_NE(rejection(R"({"a":1,"a":2})").find("duplicate key"),
              std::string::npos);
    EXPECT_NE(rejection("{\"a\":\"x\ty\"}").find("control byte"),
              std::string::npos);
    EXPECT_NE(rejection("{\"a\x01\":1}").find("control byte"),
              std::string::npos);
    EXPECT_NE(rejection(R"({"a":18446744073709551616})").find("overflow"),
              std::string::npos);
    EXPECT_NE(rejection(R"({"a":-9223372036854775809})").find("overflow"),
              std::string::npos);
    EXPECT_NE(rejection(R"({"a":1e400})").find("out of range"),
              std::string::npos);
    EXPECT_NE(rejection(R"({"a":"\u0080"})").find("0x80"),
              std::string::npos);
    EXPECT_NE(rejection(R"({"a":"\u00e9"})").find("0x80"),
              std::string::npos);
}

TEST(JsonReader, RejectsMalformedSyntax)
{
    for (const char *text :
         {"", "[]", "{", "{\"a\"", "{\"a\":", "{\"a\":1", "{\"a\":1,}",
          "{a:1}", "{\"a\" 1}", "{\"a\":01}", "{\"a\":1.}", "{\"a\":.5}",
          "{\"a\":1e}", "{\"a\":+1}", "{\"a\":-}", "{\"a\":tru}",
          "{\"a\":nan}", "{\"a\":\"x}", "{\"a\":\"\\x\"}",
          "{\"a\":\"\\u12\"}", "{\"a\":\"\\u-012\"}",
          R"({"seq":5,"ev":"sp)"}) {
        EXPECT_FALSE(rejection(text).empty()) << "accepted: " << text;
    }
}

} // namespace
} // namespace amdahl
