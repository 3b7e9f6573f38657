/**
 * @file
 * Minimal RFC-4180-style CSV emission.
 *
 * Bench binaries optionally dump their series as CSV so the figures can be
 * re-plotted outside the repo. Values containing commas, quotes, or
 * newlines are quoted and escaped.
 */

#ifndef AMDAHL_COMMON_CSV_HH
#define AMDAHL_COMMON_CSV_HH

#include <ostream>
#include <string>
#include <vector>

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

} // namespace amdahl

#endif // AMDAHL_COMMON_CSV_HH
