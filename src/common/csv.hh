/**
 * @file
 * Minimal RFC-4180-style CSV emission and validated ingestion.
 *
 * Bench binaries optionally dump their series as CSV so the figures can be
 * re-plotted outside the repo. Values containing commas, quotes, or
 * newlines are quoted and escaped.
 *
 * The reader side sits on the trust boundary (status.hh): profiled
 * speedup curves and replayed bench artifacts arrive as
 * tenant-supplied CSV, so parsing returns structured, line-numbered
 * errors instead of throwing — unterminated quotes and stray bytes
 * after a closing quote are parse errors, ragged rows are semantic
 * errors.
 */

#ifndef AMDAHL_COMMON_CSV_HH
#define AMDAHL_COMMON_CSV_HH

#include <iosfwd>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.hh"

namespace amdahl {

/**
 * Streaming CSV writer.
 *
 * The header is written on construction; each row must match the header's
 * arity.
 */
class CsvWriter
{
  public:
    /**
     * @param os      Destination stream (must outlive the writer).
     * @param header  Column names; written immediately.
     */
    CsvWriter(std::ostream &os, std::vector<std::string> header);

    /** Write one row. @param cells One cell per header column. */
    void writeRow(const std::vector<std::string> &cells);

    /** Escape a single CSV field per RFC 4180. */
    static std::string escape(const std::string &field);

    /** @return Number of data rows written. */
    std::size_t rowsWritten() const { return nRows; }

  private:
    void emit(const std::vector<std::string> &cells);

    std::ostream &out;
    std::size_t arity;
    std::size_t nRows = 0;
};

/** A parsed CSV document: a header row plus zero or more data rows. */
struct CsvTable
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows; //!< Each header-arity.

    /** @return Index of a header column, or npos when absent. */
    std::size_t columnIndex(const std::string &name) const;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/** Knobs for parseCsv. */
struct CsvParseOptions
{
    /** Hard cap on data rows — backpressure against unbounded
     *  attacker-supplied input. Exceeding it is a semantic error. */
    std::size_t maxRows = 1u << 20;
};

/**
 * Parse an RFC-4180 CSV document (quoted fields, doubled quotes, CRLF
 * or LF line ends; embedded newlines inside quoted fields).
 *
 * The first record is the header and must be non-empty. Never throws
 * on malformed input.
 *
 * @param in   The untrusted byte stream.
 * @param opts Strictness knobs.
 * @return The table, or a line-numbered parse/semantic error.
 */
Result<CsvTable> parseCsv(std::istream &in,
                          const CsvParseOptions &opts = {});

/** Convenience: parse from a string. */
Result<CsvTable> parseCsvString(const std::string &text,
                                const CsvParseOptions &opts = {});

} // namespace amdahl

#endif // AMDAHL_COMMON_CSV_HH
