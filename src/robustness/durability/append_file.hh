/**
 * @file
 * The append-only file under the journal and the job segment.
 *
 * On-disk layout (little-endian):
 *
 *     4 magic bytes | u32 version | body bytes ...
 *
 * The body only grows, by appends. Each append goes from the durable
 * end of the body: an attempt first cuts the file back there (a
 * failed earlier attempt may have left partial bytes, so a successful
 * retry never duplicates any), writes the new bytes with a torn-write
 * kill point at half of them, and fsyncs before the append returns.
 * Only a resume cuts durable bytes: those past the body its owner
 * verified. A create writes a bare header and
 * fsyncs the file and its directory: POSIX makes a new file's name
 * durable only once its directory is.
 *
 * What tells one kind of file from another — its name in notes, IO
 * labels and errors, its header, and its kill points — is data
 * (FileFormat); the journal (journal.hh) adds its record framing, and
 * the job segment (durable_store.hh) nothing.
 */

#ifndef AMDAHL_ROBUSTNESS_DURABILITY_APPEND_FILE_HH
#define AMDAHL_ROBUSTNESS_DURABILITY_APPEND_FILE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"
#include "robustness/durability/posix_io.hh"

namespace amdahl::durability {

/** Receives a payload's bytes, one piece at a time, in order. */
using PayloadSink = std::function<void(std::string_view)>;

/**
 * Write every piece @p emit hands over to @p file, in order, and hit
 * kill point @p tearSite once the first floor(@p size / 2) bytes are
 * written (before any byte when that is zero), splitting a piece if
 * need be: the torn-write crash site of a streamed write.
 *
 * @return The first write error, or a SemanticError naming @p what
 * when the pieces add up to a byte count other than @p size.
 */
Status writeTearingAtHalf(PosixFile &file, std::uint64_t size,
                          const std::function<void(const PayloadSink &)> &emit,
                          std::string_view tearSite, std::string_view what);

/** One kind of append-only file. */
struct FileFormat
{
    /** Names the file in notes, IO labels and errors. */
    std::string_view name;
    /** The four bytes the file starts with. */
    std::string_view magic;
    std::uint32_t version;
    /** Kill point hit once half an append's new bytes are written. */
    std::string_view midAppendSite;
    /** Kill point hit before an append's fsync; empty for none. */
    std::string_view preSyncSite;
    /** How a note on a refused header ends: after a missing header or
     *  a wrong magic, and after a version skew. */
    std::string_view refusedMagic;
    std::string_view refusedVersion;
    /** The note on a zero-length file; empty for the missing-header
     *  note. */
    std::string_view zeroLengthNote;
};

/** @return The eight header bytes of a durable file: @p magic (four
 *  bytes), then @p version as a u32. */
std::string fileHeader(std::string_view magic, std::uint32_t version);

/** Result of reading an append-only file back (AppendFile::scan()). */
struct FileScan
{
    /** true when the file exists with a well-formed current header. */
    bool usable = false;
    /** The bytes past a well-formed header; empty otherwise. */
    std::string body;
    /** Human-readable anomaly descriptions, in detection order. */
    std::vector<std::string> notes;
};

/** Append handle for one headered, append-only file. It keeps a
 *  pointer to its FileFormat, which must outlive it (the formats are
 *  namespace-scope constants). */
class AppendFile
{
  public:
    /** Magic + u32 version. */
    static constexpr std::uint64_t kHeaderBytes = 8;

    /**
     * Read @p path without mutating it. A missing file yields no body
     * and no notes (the fresh-start case); an unreadable one, or one
     * with a short, wrong or skewed header, yields no body and a note.
     */
    static FileScan scan(const std::string &path, const FileFormat &format);

    /** Create/truncate @p path with a bare header (file and directory
     *  fsynced). */
    static Result<AppendFile> create(const std::string &path,
                                     const FileFormat &format,
                                     IoContext &io);

    /**
     * Open @p path for appending after a scan found a well-formed
     * header and at least @p bodyBytes body bytes: cuts any tail
     * beyond them (fsynced).
     */
    static Result<AppendFile> openResume(const std::string &path,
                                         std::uint64_t bodyBytes,
                                         const FileFormat &format,
                                         IoContext &io);

    /**
     * Append the body bytes from the durable end up to @p end, which
     * `emit(from, sink)` hands over from body offset `from`, and
     * fsync. Hits the format's kill points on every call, even one
     * that appends nothing. An @p end below the durable end, or an
     * emitter that hands over another byte count, is a SemanticError.
     */
    Status append(std::uint64_t end,
                  const std::function<void(std::uint64_t from,
                                           const PayloadSink &)> &emit,
                  IoContext &io);

    /** @return Body bytes durable past the header. */
    std::uint64_t bodyBytes() const { return body_; }

  private:
    AppendFile(PosixFile file, const FileFormat &format,
               std::uint64_t body)
        : file_(std::move(file)), format_(&format), body_(body)
    {}

    PosixFile file_;
    const FileFormat *format_;
    std::uint64_t body_ = 0;
};

} // namespace amdahl::durability

#endif // AMDAHL_ROBUSTNESS_DURABILITY_APPEND_FILE_HH
