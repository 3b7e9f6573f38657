/**
 * @file
 * Structured error propagation across the trust boundary.
 *
 * Everything that crosses from *outside* the process into the market —
 * tenant-supplied market files, profiled speedup curves, CSV artifacts —
 * is untrusted. Throwing FatalError on the first bad token (the
 * library-internal convention from logging.hh) is the wrong tool at
 * that boundary: callers cannot distinguish "the file is garbage" from
 * "the library is misconfigured", and a service clearing markets every
 * epoch must reject bad input without unwinding through its event loop.
 *
 * This header provides the explicit alternative: `Status` describes one
 * ingestion failure with a taxonomy kind and a line number, and
 * `Result<T>` carries either a value or a Status. The taxonomy:
 *
 *  - ParseError:    the bytes do not match the grammar (bad token,
 *                   unterminated quote, truncated record).
 *  - DomainError:   a token parsed but its value is unusable anywhere
 *                   (NaN, infinity, a fraction outside [0, 1], a
 *                   negative capacity).
 *  - SemanticError: every field is individually fine but the document
 *                   is inconsistent (duplicate `job server` entries,
 *                   a job referencing a server that does not exist,
 *                   a market with no users).
 *  - IoError:       the bytes could not be read at all.
 *
 * Callers choose reject-vs-repair per field: the CLI rejects and prints
 * the status, the profiling sanitizer repairs what it can and reports
 * what it changed, and tests assert that *no* malformed input escapes
 * as a crash or a raw std:: exception.
 */

#ifndef AMDAHL_COMMON_STATUS_HH
#define AMDAHL_COMMON_STATUS_HH

#include <optional>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace amdahl {

/** Error taxonomy for validated ingestion (see file comment). */
enum class ErrorKind
{
    ParseError,    //!< Bytes do not match the grammar.
    DomainError,   //!< A value is unusable (non-finite, out of range).
    SemanticError, //!< Fields are fine; the document is inconsistent.
    IoError,       //!< The input could not be read.
};

/** @return Short label for an error kind ("parse error", ...). */
[[nodiscard]] const char *toString(ErrorKind kind);

/**
 * Outcome of one ingestion step: success, or one classified,
 * line-numbered failure.
 *
 * Statuses are cheap to move and never throw; the first error
 * encountered wins (ingestion stops at the first unusable token, so
 * the line number always points at the offending input).
 */
class [[nodiscard]] Status
{
  public:
    /** @return The success status. */
    static Status ok() { return Status(); }

    /**
     * Build a failure status.
     *
     * @param kind Taxonomy classification.
     * @param line 1-based input line, or 0 when no line applies.
     * @param args Message fragments, concatenated with operator<<.
     */
    template <typename... Args>
    static Status
    error(ErrorKind kind, int line, Args &&...args)
    {
        Status st;
        st.failed = true;
        st.errorKind = kind;
        st.errorLine = line;
        st.text = detail::concat(std::forward<Args>(args)...);
        return st;
    }

    /** @return true on success. */
    [[nodiscard]] bool isOk() const { return !failed; }

    /** @return The taxonomy kind. Only meaningful on failure. */
    [[nodiscard]] ErrorKind kind() const { return errorKind; }

    /** @return 1-based line of the failure; 0 when none applies. */
    [[nodiscard]] int line() const { return errorLine; }

    /** @return The bare failure message (no kind/line prefix). */
    [[nodiscard]] const std::string &message() const { return text; }

    /**
     * @return The full diagnostic, e.g.
     * "parse error at line 3: expected a number for a budget".
     */
    [[nodiscard]] std::string toString() const;

  private:
    Status() = default;

    bool failed = false;
    ErrorKind errorKind = ErrorKind::ParseError;
    int errorLine = 0;
    std::string text;
};

/**
 * A value or the Status explaining why there is none.
 *
 * The deliberate subset of the usual expected<T, E> surface: construct
 * with a value or a failed Status, test with ok(), and take the value
 * with value()/take(). Accessing the value of a failed result panics —
 * that is a caller bug, not an input error.
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    /** Success. */
    Result(T value) // NOLINT(google-explicit-constructor)
        : val(std::move(value)), st(Status::ok())
    {}

    /** Failure; `status.isOk()` must be false. */
    Result(Status status) // NOLINT(google-explicit-constructor)
        : st(std::move(status))
    {
        ensure(!st.isOk(),
               "Result constructed from a success Status without a value");
    }

    /** @return true when a value is present. */
    [[nodiscard]] bool ok() const { return st.isOk(); }

    /** @return The failure (or success) status. */
    [[nodiscard]] const Status &status() const { return st; }

    /** @return The value. Panics when !ok(). */
    [[nodiscard]] const T &
    value() const
    {
        // Tested first so the message is built only on failure.
        if (!ok())
            panic("Result::value() on a failed result: ", st.toString());
        return *val;
    }

    /** @return The value, moved out. Panics when !ok(). */
    [[nodiscard]] T
    take()
    {
        if (!ok())
            panic("Result::take() on a failed result: ", st.toString());
        return std::move(*val);
    }

    /**
     * Back-compat bridge for throw-style callers: the value, or a
     * FatalError carrying the full diagnostic.
     */
    T
    orFatal()
    {
        if (!ok())
            fatal(st.toString());
        return std::move(*val);
    }

  private:
    std::optional<T> val;
    Status st;
};

} // namespace amdahl

#endif // AMDAHL_COMMON_STATUS_HH
