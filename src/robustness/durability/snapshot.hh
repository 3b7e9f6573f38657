/**
 * @file
 * Checksummed full-state snapshots.
 *
 * On-disk layout of `snapshot-<epoch:08>.amss` (little-endian):
 *
 *     "AMSS" | u32 version | u64 epoch | u64 payloadLen |
 *     u32 crc32(payload) | payload bytes
 *
 * Publication follows the classic atomic-rename protocol: the bytes
 * are written to a `.tmp` sibling, fsynced, renamed over the final
 * name, and the directory is fsynced. A reader therefore never sees a
 * partially written snapshot under the final name; a crash can only
 * leave a stale `.tmp` (ignored and pruned) or no file at all.
 *
 * A payload is streamed, not held: the writer takes its size and CRC
 * as declared, writes the header from them, and then takes the bytes
 * piece by piece from an emitter (SnapshotPayload), so a
 * multi-megabyte state never has to exist as one buffer.
 *
 * loadLatest() walks snapshots newest-first and returns the first one
 * that verifies — a corrupt newest snapshot (bit rot, version skew,
 * tampering) is *rejected with a note* and the previous one is used,
 * which is why write() retains `keep` generations instead of exactly
 * one.
 */

#ifndef AMDAHL_ROBUSTNESS_DURABILITY_SNAPSHOT_HH
#define AMDAHL_ROBUSTNESS_DURABILITY_SNAPSHOT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"
#include "robustness/durability/append_file.hh"
#include "robustness/durability/posix_io.hh"

namespace amdahl::durability {

/** One decoded, checksum-verified snapshot. */
struct SnapshotData
{
    std::uint64_t epoch = 0;
    std::string payload;
};

/** Outcome of loadLatest(): the newest verifiable snapshot, if any. */
struct SnapshotLoad
{
    std::optional<SnapshotData> snapshot;
    /** Notes for every newer snapshot that failed verification. */
    std::vector<std::string> rejected;
};

/**
 * A snapshot payload as the writer streams it: its size and CRC-32
 * declared up front, and an emitter that hands its bytes to a sink in
 * pieces. The writer calls `emit` once per write attempt, so it must
 * hand over the same bytes every time.
 */
struct SnapshotPayload
{
    std::uint64_t size;
    /** crc32 of the `size` bytes that emit hands over. */
    std::uint32_t crc;
    std::function<void(const PayloadSink &)> emit;

    SnapshotPayload(std::uint64_t size, std::uint32_t crc,
                    std::function<void(const PayloadSink &)> emit);

    /** A payload held whole, handed over as one piece. */
    SnapshotPayload(std::string bytes);

    /** @return Every piece emit hands over, concatenated. */
    std::string collect() const;
};

/** Manages the snapshot generation files in one state directory. */
class SnapshotStore
{
  public:
    static constexpr std::uint32_t kVersion = 1;
    /** Sanity cap on a snapshot payload (bounds allocation). */
    static constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

    /**
     * @param dir  State directory (must exist).
     * @param keep Generations to retain (>= 1).
     */
    SnapshotStore(std::string dir, int keep)
        : dir_(std::move(dir)), keep_(keep)
    {}

    /**
     * Verify and decode one snapshot file (any path). Used by
     * loadLatest() and directly by the corruption-corpus tests.
     */
    static Result<SnapshotData> decodeFile(const std::string &path);

    /** @return The newest verifiable snapshot in the directory, with
     *  notes for every newer one that had to be rejected. */
    SnapshotLoad loadLatest() const;

    /**
     * Durably publish a snapshot for @p epoch (tmp + fsync + rename +
     * dir fsync), then prune generations beyond the keep count and any
     * stale tmp files. Hits the snapshot.pre_write / mid_write /
     * pre_rename / post_rename kill points; mid_write fires after
     * exactly half the payload (rounded down), whatever its pieces.
     * A payload declared larger than kMaxPayloadBytes, which
     * decodeFile would reject, is refused before any file is
     * created, and one whose emitter hands over a byte count other
     * than the declared size is never published. Checked builds also
     * assert that the bytes emitted have the declared CRC.
     */
    Status write(std::uint64_t epoch, const SnapshotPayload &payload,
                 IoContext &io);

    /** @return The final path for @p epoch's snapshot file. */
    std::string pathFor(std::uint64_t epoch) const;

  private:
    std::string dir_;
    int keep_;
};

} // namespace amdahl::durability

#endif // AMDAHL_ROBUSTNESS_DURABILITY_SNAPSHOT_HH
