/**
 * @file
 * CSV serialization of workload profiles.
 *
 * Profiles in this reproduction come from the execution simulator, but
 * the deployment the paper targets collects them from `perf stat` and
 * Spark event logs — i.e. from files a tenant hands the operator. This
 * module is that ingestion path: a `dataset_gb,cores,seconds` CSV is
 * parsed with structured, line-numbered errors (common/status.hh) and
 * validated against the grid invariants the Karp-Flatt pipeline
 * assumes — every dataset profiled at one core (speedups are relative
 * to it), positive measurements, and no duplicate grid cells.
 *
 * Header line:      dataset_gb,cores,seconds
 * Record example:   2.5,8,41.7
 */

#ifndef AMDAHL_PROFILING_PROFILE_IO_HH
#define AMDAHL_PROFILING_PROFILE_IO_HH

#include <iosfwd>
#include <string>

#include "common/status.hh"
#include "profiling/profiler.hh"

namespace amdahl::profiling {

/**
 * Parse a profile CSV (untrusted input; never throws on bad bytes).
 *
 * Domain errors: non-numeric/non-finite cells, non-positive dataset
 * sizes, core counts, or measured seconds. Semantic errors: duplicate
 * (dataset, cores) grid cells and datasets with no single-core
 * measurement.
 *
 * @param in           The CSV stream.
 * @param workloadName Name recorded on the resulting profile.
 * @return The profile (core counts and datasets sorted ascending), or
 *         the first classified error.
 */
Result<WorkloadProfile> tryParseProfileCsv(std::istream &in,
                                           std::string workloadName);

/** Convenience: structured parse from a string. */
Result<WorkloadProfile>
tryParseProfileCsvString(const std::string &text,
                         std::string workloadName);

/**
 * Open and parse a profile CSV file.
 *
 * @param path         Filesystem path.
 * @param workloadName Name recorded on the resulting profile.
 * @return The profile, an IoError when the file cannot be opened, or
 *         the first parse/domain/semantic error.
 */
Result<WorkloadProfile> loadProfileCsv(const std::string &path,
                                       std::string workloadName);

} // namespace amdahl::profiling

#endif // AMDAHL_PROFILING_PROFILE_IO_HH
