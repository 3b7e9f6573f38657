/**
 * @file
 * Append-only record segment: history a snapshot names instead of
 * holding.
 *
 * On-disk layout of `jobs.amsg` (little-endian):
 *
 *     "AMSG" | u32 version | record bytes ...
 *
 * The records are opaque here; the online runtime writes its frozen
 * job records (eval/online.hh). A record, once appended, never
 * changes, so a snapshot names a prefix of the segment by its length
 * (and its CRC, which the snapshot's owner checks) instead of
 * rewriting it. Appends go from the segment's durable end and are
 * fsynced before the snapshot that names them is published. The
 * segment is never pruned: every kept snapshot names a prefix, and a
 * resume only cuts the tail beyond the prefix its snapshot names.
 */

#ifndef AMDAHL_ROBUSTNESS_DURABILITY_SEGMENT_HH
#define AMDAHL_ROBUSTNESS_DURABILITY_SEGMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hh"
#include "robustness/durability/posix_io.hh"
#include "robustness/durability/snapshot.hh"

namespace amdahl::durability {

/**
 * The records a snapshot names: the segment must hold `size` record
 * bytes once the snapshot is published, and `emit(from, sink)` hands
 * bytes [from, size) to the sink in order. An empty `emit` means the
 * snapshot names no segment at all.
 */
struct SegmentRecords
{
    std::uint64_t size = 0;
    std::function<void(std::uint64_t from, const PayloadSink &)> emit;
};

/** Result of reading a segment back (see Segment::scan()). */
struct SegmentScan
{
    /** The record bytes past a well-formed header; empty otherwise. */
    std::string records;
    /** Human-readable anomaly descriptions. */
    std::vector<std::string> notes;
};

/** Append handle for a segment file. */
class Segment
{
  public:
    static constexpr std::uint32_t kVersion = 1;
    /** "AMSG" + u32 version. */
    static constexpr std::uint64_t kHeaderBytes = 8;

    /**
     * Read @p path without mutating it. A missing file yields no
     * records and no notes; a file with a short or wrong header yields
     * no records and a note.
     */
    static SegmentScan scan(const std::string &path);

    /** Create/truncate @p path with a bare header (file and directory
     *  fsynced). */
    static Result<Segment> create(const std::string &path,
                                  const std::string &dir, IoContext &io);

    /**
     * Open @p path for appending after a scan found a well-formed
     * header and at least @p recordBytes record bytes: truncates any
     * tail beyond them (fsynced).
     */
    static Result<Segment> openResume(const std::string &path,
                                      std::uint64_t recordBytes,
                                      IoContext &io);

    /**
     * Append the records from the durable end up to @p records.size
     * and fsync. Hits segment.mid_append once half the new bytes are
     * written and segment.pre_sync before the fsync, on every call,
     * even one that appends nothing. A failed attempt is truncated
     * back before the retry; a target below the durable end, or an
     * emitter that hands over another byte count, is a SemanticError.
     */
    Status append(const SegmentRecords &records, IoContext &io);

  private:
    Segment(PosixFile file, std::uint64_t recordBytes)
        : file_(std::move(file)), recordBytes_(recordBytes)
    {}

    PosixFile file_;
    /** Record bytes durable past the header. */
    std::uint64_t recordBytes_ = 0;
};

} // namespace amdahl::durability

#endif // AMDAHL_ROBUSTNESS_DURABILITY_SEGMENT_HH
