#include "csv.hh"

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

} // namespace amdahl
