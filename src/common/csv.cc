#include "csv.hh"

#include <istream>
#include <sstream>

#include "logging.hh"

namespace amdahl {

CsvWriter::CsvWriter(std::ostream &os, std::vector<std::string> header)
    : out(os), arity(header.size())
{
    if (header.empty())
        fatal("CSV header must be non-empty");
    emit(header);
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    if (cells.size() != arity)
        fatal("CSV row has ", cells.size(), " cells, expected ", arity);
    emit(cells);
    ++nRows;
}

std::string
CsvWriter::escape(const std::string &field)
{
    const bool needs_quotes =
        field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes)
        return field;
    std::string quoted = "\"";
    for (char ch : field) {
        if (ch == '"')
            quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

void
CsvWriter::emit(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            out << ',';
        out << escape(cells[i]);
    }
    out << '\n';
}

std::size_t
CsvTable::columnIndex(const std::string &name) const
{
    for (std::size_t c = 0; c < header.size(); ++c) {
        if (header[c] == name)
            return c;
    }
    return npos;
}

namespace {

/**
 * One-record RFC-4180 scanner over a raw character stream. Tracks the
 * line counter across embedded newlines so errors always carry the
 * physical line they occurred on.
 */
struct CsvScanner
{
    std::istream &in;
    int line = 1;

    /**
     * Read the next record into `cells`. @return false at clean EOF
     * (no record started); a Status failure via `error` otherwise.
     */
    bool
    nextRecord(std::vector<std::string> &cells, Status &error)
    {
        cells.clear();
        int ch = in.get();
        if (ch == std::istream::traits_type::eof())
            return false;
        std::string cell;
        bool quoted = false;
        bool closed = false; // Cell ended with a closing quote.
        const int record_line = line;
        while (true) {
            if (ch == std::istream::traits_type::eof()) {
                if (quoted) {
                    error = Status::error(
                        ErrorKind::ParseError, record_line,
                        "unterminated quoted field");
                    return false;
                }
                cells.push_back(std::move(cell));
                return true;
            }
            const char c = static_cast<char>(ch);
            if (quoted) {
                if (c == '"') {
                    const int next = in.peek();
                    if (next == '"') {
                        in.get();
                        cell += '"';
                    } else {
                        quoted = false;
                        closed = true;
                    }
                } else {
                    if (c == '\n')
                        ++line;
                    cell += c;
                }
            } else if (c == ',') {
                cells.push_back(std::move(cell));
                cell.clear();
                closed = false;
            } else if (c == '\n' || c == '\r') {
                if (c == '\r' && in.peek() == '\n')
                    in.get();
                ++line;
                cells.push_back(std::move(cell));
                return true;
            } else if (closed) {
                // RFC 4180: a closing quote ends the field; anything
                // but a separator after it is smuggled data.
                error = Status::error(ErrorKind::ParseError, line,
                                      "data after a closing quote");
                return false;
            } else if (c == '"') {
                if (!cell.empty()) {
                    error = Status::error(
                        ErrorKind::ParseError, line,
                        "quote in the middle of an unquoted field");
                    return false;
                }
                quoted = true;
            } else {
                cell += c;
            }
            ch = in.get();
        }
    }
};

} // namespace

Result<CsvTable>
parseCsv(std::istream &in, const CsvParseOptions &opts)
{
    if (!in)
        return Status::error(ErrorKind::IoError, 0,
                             "cannot read CSV input");

    CsvScanner scanner{in};
    CsvTable table;
    Status error = Status::ok();

    if (!scanner.nextRecord(table.header, error)) {
        if (!error.isOk())
            return error;
        return Status::error(ErrorKind::ParseError, 0,
                             "CSV input is empty (no header)");
    }
    if (table.header.size() == 1 && table.header[0].empty()) {
        return Status::error(ErrorKind::ParseError, 1,
                             "CSV header is empty");
    }

    std::vector<std::string> cells;
    while (true) {
        const int record_line = scanner.line;
        if (!scanner.nextRecord(cells, error)) {
            if (!error.isOk())
                return error;
            return table;
        }
        // A lone empty cell is a blank line; skip it (common at EOF).
        if (cells.size() == 1 && cells[0].empty())
            continue;
        if (cells.size() != table.header.size()) {
            return Status::error(ErrorKind::SemanticError, record_line,
                                 "row has ", cells.size(),
                                 " cells, header has ",
                                 table.header.size());
        }
        if (table.rows.size() >= opts.maxRows) {
            return Status::error(ErrorKind::SemanticError, record_line,
                                 "more than ", opts.maxRows,
                                 " data rows");
        }
        table.rows.push_back(cells);
    }
}

Result<CsvTable>
parseCsvString(const std::string &text, const CsvParseOptions &opts)
{
    std::istringstream is(text);
    return parseCsv(is, opts);
}

} // namespace amdahl
