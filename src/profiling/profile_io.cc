#include "profile_io.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/csv.hh"

namespace amdahl::profiling {

namespace {

/** Parse one CSV cell as a finite double (from_chars; no exceptions). */
Status
parseCell(const std::string &cell, int line, const char *what,
          double &value)
{
    double parsed = 0.0;
    const char *first = cell.data();
    const char *last = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(first, last, parsed);
    if (ec == std::errc::result_out_of_range) {
        return Status::error(ErrorKind::DomainError, line, what, " '",
                             cell, "' is out of range");
    }
    if (ec != std::errc() || ptr != last) {
        return Status::error(ErrorKind::ParseError, line,
                             "expected a number for ", what, ", got '",
                             cell, "'");
    }
    if (!std::isfinite(parsed)) {
        return Status::error(ErrorKind::DomainError, line, what,
                             " must be finite, got '", cell, "'");
    }
    value = parsed;
    return Status::ok();
}

} // namespace

Result<WorkloadProfile>
tryParseProfileCsv(std::istream &in, std::string workloadName)
{
    auto parsed = parseCsv(in);
    if (!parsed.ok())
        return parsed.status();
    const CsvTable table = parsed.take();

    const std::size_t col_gb = table.columnIndex("dataset_gb");
    const std::size_t col_cores = table.columnIndex("cores");
    const std::size_t col_seconds = table.columnIndex("seconds");
    if (col_gb == CsvTable::npos || col_cores == CsvTable::npos ||
        col_seconds == CsvTable::npos) {
        return Status::error(
            ErrorKind::SemanticError, 1,
            "profile CSV needs columns dataset_gb, cores, seconds");
    }

    WorkloadProfile profile;
    profile.workloadName = std::move(workloadName);
    std::set<std::pair<double, int>> seen;
    // Data rows start on line 2; quoted multi-line cells would shift
    // this, but numeric profiles have no business containing them.
    int line = 1;
    for (const auto &row : table.rows) {
        ++line;
        double gb = 0.0, cores_raw = 0.0, seconds = 0.0;
        if (auto st = parseCell(row[col_gb], line, "dataset_gb", gb);
            !st.isOk()) {
            return st;
        }
        if (auto st = parseCell(row[col_cores], line, "cores",
                                cores_raw);
            !st.isOk()) {
            return st;
        }
        if (auto st = parseCell(row[col_seconds], line, "seconds",
                                seconds);
            !st.isOk()) {
            return st;
        }
        if (gb <= 0.0) {
            return Status::error(ErrorKind::DomainError, line,
                                 "dataset_gb must be positive, got ",
                                 gb);
        }
        if (cores_raw < 1.0 ||
            cores_raw != std::floor(cores_raw) ||
            cores_raw > static_cast<double>(
                            std::numeric_limits<int>::max())) {
            return Status::error(ErrorKind::DomainError, line,
                                 "cores must be a positive integer, "
                                 "got '",
                                 row[col_cores], "'");
        }
        if (seconds <= 0.0) {
            return Status::error(ErrorKind::DomainError, line,
                                 "seconds must be positive, got ",
                                 seconds);
        }
        const int cores = static_cast<int>(cores_raw);
        if (!seen.insert({gb, cores}).second) {
            return Status::error(ErrorKind::SemanticError, line,
                                 "duplicate grid cell (", gb, " GB, ",
                                 cores, " cores)");
        }
        ProfilePoint pt;
        pt.datasetGB = gb;
        pt.cores = cores;
        pt.seconds = seconds;
        profile.points.push_back(pt);
    }

    if (profile.points.empty()) {
        return Status::error(ErrorKind::SemanticError, line,
                             "profile CSV has no measurements");
    }

    // Reconstruct the grid axes and enforce the Karp-Flatt anchors:
    // every dataset needs its single-core reference measurement.
    std::set<int> cores_seen;
    std::map<double, bool> dataset_has_one_core;
    for (const auto &pt : profile.points) {
        cores_seen.insert(pt.cores);
        dataset_has_one_core[pt.datasetGB] |= pt.cores == 1;
    }
    for (const auto &[gb, has_one] : dataset_has_one_core) {
        if (!has_one) {
            return Status::error(
                ErrorKind::SemanticError, line, "dataset ", gb,
                " GB has no single-core measurement (speedups are "
                "relative to one core)");
        }
        profile.datasetsGB.push_back(gb);
    }
    profile.coreCounts.assign(cores_seen.begin(), cores_seen.end());
    return profile;
}

Result<WorkloadProfile>
tryParseProfileCsvString(const std::string &text,
                         std::string workloadName)
{
    std::istringstream is(text);
    return tryParseProfileCsv(is, std::move(workloadName));
}

Result<WorkloadProfile>
loadProfileCsv(const std::string &path, std::string workloadName)
{
    std::ifstream in(path);
    if (!in) {
        return Status::error(ErrorKind::IoError, 0, "cannot open '",
                             path, "'");
    }
    return tryParseProfileCsv(in, std::move(workloadName));
}

} // namespace amdahl::profiling
