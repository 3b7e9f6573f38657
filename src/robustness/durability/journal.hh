/**
 * @file
 * Write-ahead epoch journal.
 *
 * On-disk layout (all integers little-endian):
 *
 *     header:  "AMJL" | u32 version
 *     record:  u32 payloadLen | u32 crc32(payload) | payload bytes
 *     ...repeated until end of file
 *
 * The file is an AppendFile (append_file.hh), which creates, resumes
 * and appends to it; the journal adds the record framing. It holds
 * one record per committed epoch and is never cut back when a
 * snapshot is taken: a snapshot only shortens the replay, so recovery
 * can fall back past a rejected snapshot and still replay (and
 * verify) every epoch after the one it resumes from. Appends write
 * the complete record then fsync before the epoch is considered
 * durable; a crash mid-append leaves a torn tail that scan() detects
 * (short record or CRC mismatch) and reports as the end of the valid
 * prefix — recovery truncates the file there and resumes appending.
 *
 * scan() treats the file as untrusted input: it never applies bytes
 * it cannot verify, and classifies every anomaly (missing header,
 * version skew, implausible length, checksum failure) in
 * human-readable notes the CLI surfaces after --recover.
 */

#ifndef AMDAHL_ROBUSTNESS_DURABILITY_JOURNAL_HH
#define AMDAHL_ROBUSTNESS_DURABILITY_JOURNAL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"
#include "robustness/durability/append_file.hh"
#include "robustness/durability/posix_io.hh"

namespace amdahl::durability {

/** One verified record from a journal scan. */
struct ScannedRecord
{
    std::string payload;
    /** File offset one past this record (a valid truncation point). */
    std::uint64_t endOffset = 0;
};

/** Result of reading a journal file back (see scan()). */
struct JournalScan
{
    /** Verified records, in append order (the valid prefix). */
    std::vector<ScannedRecord> records;
    /** true when unverifiable bytes followed the valid prefix. */
    bool tornTail = false;
    /** Offset one past the last verified record (header only = 8). */
    std::uint64_t validBytes = 0;
    /** true when the file exists with a well-formed current header. */
    bool usable = false;
    /** Human-readable anomaly descriptions, in detection order. */
    std::vector<std::string> notes;
};

/** Append handle for a journal file. */
class Journal
{
  public:
    static constexpr std::uint32_t kVersion = 1;
    /** "AMJL" + u32 version. */
    static constexpr std::uint64_t kHeaderBytes = AppendFile::kHeaderBytes;
    /** Sanity cap on one record; larger lengths are treated as
     *  corruption, bounding allocation on malicious/garbage input. */
    static constexpr std::uint32_t kMaxRecordBytes = 1u << 26;

    /**
     * Verify @p path without mutating it. A missing file yields an
     * empty, non-usable scan with no notes (the fresh-start case); a
     * present-but-unusable file (empty, bad magic, version skew)
     * yields notes and usable = false.
     */
    static JournalScan scan(const std::string &path);

    /** Create/truncate @p path with a fresh header (file and
     *  directory fsynced). */
    static Result<Journal> create(const std::string &path, IoContext &io);

    /**
     * Open @p path for appending after a scan: truncates to
     * @p validBytes, discarding any torn tail. The scan must have
     * found a usable header.
     */
    static Result<Journal> openResume(const std::string &path,
                                      std::uint64_t validBytes,
                                      IoContext &io);

    /**
     * Append one checksummed record and fsync. On any failed attempt
     * the file is truncated back to its pre-append size, so a
     * successful retry never duplicates bytes. Hits the
     * journal.pre_append / journal.mid_append / journal.post_append
     * kill points.
     */
    Status append(std::string_view payload, IoContext &io);

    /** @return Current file size in bytes (header + records). */
    std::uint64_t
    sizeBytes() const
    {
        return kHeaderBytes + file_.bodyBytes();
    }

  private:
    explicit Journal(AppendFile file) : file_(std::move(file)) {}

    AppendFile file_;
};

} // namespace amdahl::durability

#endif // AMDAHL_ROBUSTNESS_DURABILITY_JOURNAL_HH
