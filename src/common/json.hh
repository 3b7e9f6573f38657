/**
 * @file
 * JSON emission helpers, and the reader for what they emit.
 *
 * The repo writes JSON from several places — TablePrinter::writeJson,
 * the metrics exporters, and the trace sink — and they must agree on
 * escaping and number formatting byte for byte (trace files are golden
 * tested). This is the single implementation they all share.
 *
 * parseJsonObject() reads back one flat object, which is every line
 * the trace sink writes. It sits here, next to the emitter, so the
 * two agree on escapes and number forms.
 */

#ifndef AMDAHL_COMMON_JSON_HH
#define AMDAHL_COMMON_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.hh"

namespace amdahl {

/**
 * Append @p value to @p out as a JSON string literal (including the
 * surrounding quotes). Quotes, backslashes, and control bytes below
 * 0x20 are escaped; everything else passes through verbatim.
 */
void appendJsonEscaped(std::string &out, std::string_view value);

/** @return @p value as a quoted JSON string literal. */
std::string jsonEscape(std::string_view value);

/**
 * Format a double as a JSON number token.
 *
 * Finite values render with the fewest significant digits that
 * round-trip exactly (so emitters stay deterministic across runs).
 * JSON has no non-finite numbers: NaN and infinities render as
 * `null`.
 */
std::string jsonNumber(double value);

/**
 * One scalar JSON value. A number token without a fraction or an
 * exponent is an integer and keeps its exact value: non-negative ones
 * as uint64, negative ones as int64 (span IDs exceed 2^53, where a
 * double would round them). Every other number is a double.
 */
using JsonValue = std::variant<std::nullptr_t, bool, std::uint64_t,
                               std::int64_t, double, std::string>;

/** One flat JSON object; members keep their document order. */
struct JsonObject
{
    std::vector<std::pair<std::string, JsonValue>> members;

    /** @return The value under @p key, or nullptr when absent. */
    [[nodiscard]] const JsonValue *find(std::string_view key) const;

    /** @return The value under @p key if it holds a T, else nullptr. */
    template <typename T>
    [[nodiscard]] const T *
    get(std::string_view key) const
    {
        const JsonValue *value = find(key);
        return value == nullptr ? nullptr : std::get_if<T>(value);
    }
};

/**
 * Parse one flat JSON object, such as one line of a trace.
 *
 * Values are strings, integers, numbers, `true`, `false` and `null`.
 * Each of these is a ParseError: a nested object or array, bytes after
 * the closing brace, a duplicate key, a raw control byte in a string,
 * an integer outside uint64/int64, a double outside its range, and a
 * `\u` escape at or above 0x80 (the emitter writes those bytes raw).
 *
 * @param text One object; surrounding whitespace is allowed.
 * @param line Line number the Status reports, 0 when none applies.
 */
Result<JsonObject> parseJsonObject(std::string_view text, int line = 0);

} // namespace amdahl

#endif // AMDAHL_COMMON_JSON_HH
