#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace amdahl {

void
appendJsonEscaped(std::string &out, std::string_view value)
{
    out += '"';
    for (char ch : value) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
}

std::string
jsonEscape(std::string_view value)
{
    std::string out;
    out.reserve(value.size() + 2);
    appendJsonEscaped(out, value);
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    // Integers stay integers: %g would render 60.0 as "6e+01", which
    // round-trips but reads badly in traces and golden files.
    if (value == std::floor(value) && std::abs(value) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        return buf;
    }
    // Shortest representation that round-trips: try increasing
    // precision until strtod reads the same bits back.
    char buf[40];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

const JsonValue *
JsonObject::find(std::string_view key) const
{
    for (const auto &[name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

namespace {

/** Read position in one object's text; failures name the column. */
struct Cursor
{
    std::string_view text;
    std::size_t pos = 0;
    int line = 0;

    template <typename... Args>
    Status
    fail(Args &&...args) const
    {
        return Status::error(ErrorKind::ParseError, line,
                             std::forward<Args>(args)..., " (column ",
                             pos + 1, ")");
    }

    bool atEnd() const { return pos >= text.size(); }
    bool peek(char ch) const { return !atEnd() && text[pos] == ch; }

    /** Consume @p ch if it is the next byte. */
    bool
    next(char ch)
    {
        if (!peek(ch))
            return false;
        ++pos;
        return true;
    }

    void
    skipSpace()
    {
        while (!atEnd() && std::string_view(" \t\r\n").find(text[pos]) !=
                               std::string_view::npos)
            ++pos;
    }

    /** Skip whitespace, then consume @p ch if it is next. */
    bool
    eat(char ch)
    {
        skipSpace();
        return next(ch);
    }

    std::size_t
    digits()
    {
        const std::size_t start = pos;
        while (!atEnd() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
        return pos - start;
    }
};

Status
readString(Cursor &c, std::string &out)
{
    // Escape letter, then the byte it stands for.
    constexpr std::string_view kEscapes = "\"\"\\\\//b\bf\fn\nr\rt\t";
    if (!c.eat('"'))
        return c.fail("expected a string");
    while (!c.atEnd()) {
        const char ch = c.text[c.pos++];
        if (ch == '"')
            return Status::ok();
        if (static_cast<unsigned char>(ch) < 0x20)
            return c.fail("raw control byte in a string");
        if (ch != '\\') {
            out += ch;
            continue;
        }
        const char esc = c.atEnd() ? '\0' : c.text[c.pos++];
        if (esc == 'u') {
            const std::string_view hex = c.text.substr(c.pos, 4);
            unsigned code = 0;
            const auto [end, ec] = std::from_chars(
                hex.data(), hex.data() + hex.size(), code, 16);
            if (hex.size() != 4 || ec != std::errc() ||
                end != hex.data() + 4)
                return c.fail("bad \\u escape");
            if (code >= 0x80)
                return c.fail("\\u escape at or above 0x80");
            c.pos += 4;
            out += static_cast<char>(code);
            continue;
        }
        std::size_t at = 0;
        while (at < kEscapes.size() && kEscapes[at] != esc)
            at += 2;
        if (esc == '\0' || at == kEscapes.size())
            return c.fail("bad escape in a string");
        out += kEscapes[at + 1];
    }
    return c.fail("unterminated string");
}

/** from_chars over the whole token into a T held by @p out. */
template <typename T>
std::errc
convert(const char *first, const char *last, JsonValue &out)
{
    T value{};
    const auto [end, ec] = std::from_chars(first, last, value);
    out = value;
    return end == last ? ec : std::errc::invalid_argument;
}

Status
readNumber(Cursor &c, JsonValue &out)
{
    // The JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    const std::size_t start = c.pos;
    const bool negative = c.next('-');
    const std::size_t intDigits = c.digits();
    bool ok = intDigits == 1 ||
              (intDigits > 1 && c.text[c.pos - intDigits] != '0');
    bool integral = true;
    if (ok && c.next('.')) {
        integral = false;
        ok = c.digits() > 0;
    }
    if (ok && (c.next('e') || c.next('E'))) {
        integral = false;
        if (!c.next('+'))
            c.next('-');
        ok = c.digits() > 0;
    }
    if (!ok)
        return c.fail("bad number");
    const char *first = c.text.data() + start;
    const char *last = c.text.data() + c.pos;
    const std::errc ec = !integral ? convert<double>(first, last, out)
                         : negative
                             ? convert<std::int64_t>(first, last, out)
                             : convert<std::uint64_t>(first, last, out);
    if (ec == std::errc::result_out_of_range)
        return c.fail(integral ? "integer overflow" : "number out of range");
    return ec == std::errc() ? Status::ok() : c.fail("bad number");
}

Status
readValue(Cursor &c, JsonValue &out)
{
    c.skipSpace();
    for (const auto &[word, value] :
         {std::pair<std::string_view, JsonValue>{"true", true},
          {"false", false},
          {"null", nullptr}}) {
        if (c.text.substr(c.pos, word.size()) == word) {
            c.pos += word.size();
            out = value;
            return Status::ok();
        }
    }
    if (c.peek('{') || c.peek('['))
        return c.fail("nested values are not supported");
    if (!c.peek('"'))
        return readNumber(c, out);
    std::string text;
    Status st = readString(c, text);
    out = std::move(text);
    return st;
}

} // namespace

Result<JsonObject>
parseJsonObject(std::string_view text, int line)
{
    Cursor c{text, 0, line};
    JsonObject object;
    if (!c.eat('{'))
        return c.fail("expected '{'");
    if (!c.eat('}')) {
        do {
            std::string key;
            JsonValue value;
            if (Status st = readString(c, key); !st.isOk())
                return st;
            if (object.find(key) != nullptr)
                return c.fail("duplicate key \"", key, "\"");
            if (!c.eat(':'))
                return c.fail("expected ':'");
            if (Status st = readValue(c, value); !st.isOk())
                return st;
            object.members.emplace_back(std::move(key), std::move(value));
        } while (c.eat(','));
        if (!c.eat('}'))
            return c.fail("expected ',' or '}'");
    }
    c.skipSpace();
    if (!c.atEnd())
        return c.fail("trailing bytes after the object");
    return object;
}

} // namespace amdahl
