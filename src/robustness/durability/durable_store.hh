/**
 * @file
 * Crash-consistent persistence for OnlineSimulator epochs.
 *
 * DurableStateStore ties the journal and snapshot layers into the
 * commit protocol the online runtime drives once per epoch:
 *
 *   1. journal.append(entry)      — the epoch's verification digest
 *      and trace frontier become durable (WAL rule: nothing the epoch
 *      produced is observable until this fsync returns);
 *   2. every snapshotEvery epochs: segment.append(records) — the
 *      records the state has frozen since the last snapshot go once
 *      to the append-only job segment (kSegmentFormat below) and are
 *      fsynced — then snapshot.write(state payload). The snapshot
 *      names the segment prefix it builds on instead of holding it,
 *      so it stays the size of the live state, not of the run's
 *      history. The payload is streamed (SnapshotPayload): the state
 *      goes to disk in bounded pieces, and its CRC comes from the
 *      epoch's digest, not from a second pass over the bytes.
 *
 * The journal is never cut back: it keeps one 36-byte record per
 * epoch (7.2 KB over 200 epochs, next to a job segment of megabytes).
 * A snapshot only shortens the replay. Records at or before the
 * snapshot a recovery resumes from are history and are skipped; when
 * the newest snapshot is rejected, recovery resumes from an older
 * kept one and replays every journaled epoch after it.
 *
 * A journal entry is deliberately *not* a state delta. It records the
 * epoch number, a CRC digest of everything the epoch admitted
 * (arrivals, placements, admission decisions, completions, churn,
 * allocations, RNG state), and the trace-file frontier. Recovery
 * loads the last good snapshot and *re-executes* the journaled epochs
 * through the same simulator code — determinism is the redo log. The
 * journaled digest then proves the replay reproduced exactly what the
 * crashed process committed; any divergence (version skew, a
 * nondeterminism bug, a tampered journal) is detected and reported
 * instead of silently producing different history.
 *
 * The journal and the segment are both an AppendFile
 * (append_file.hh), the one implementation of creating, resuming and
 * appending to a headered file; the journal adds its record framing,
 * the segment nothing. A journal entry's layout is one
 * field walk that encodeEntry and decodeEntry both run.
 *
 * See DESIGN.md §13 for the full recovery state machine.
 */

#ifndef AMDAHL_ROBUSTNESS_DURABILITY_DURABLE_STORE_HH
#define AMDAHL_ROBUSTNESS_DURABILITY_DURABLE_STORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hh"
#include "robustness/durability/append_file.hh"
#include "robustness/durability/io_faults.hh"
#include "robustness/durability/journal.hh"
#include "robustness/durability/posix_io.hh"
#include "robustness/durability/snapshot.hh"

namespace amdahl::durability {

/**
 * The job segment `jobs.amsg`: an AppendFile whose body is the records
 * a snapshot names instead of holding (the online runtime's frozen job
 * records, eval/online.hh), opaque here. A record, once appended,
 * never changes, so a snapshot names a prefix of the body by its
 * length (and its CRC, which the snapshot's owner checks). The segment
 * is never pruned: every kept snapshot names a prefix, and a resume
 * only cuts the tail beyond the prefix its snapshot names.
 */
inline constexpr FileFormat kSegmentFormat{
    .name = "segment",
    .magic = "AMSG",
    .version = 1,
    .midAppendSite = "segment.mid_append",
    .preSyncSite = "segment.pre_sync",
    .refusedMagic = "treating the segment as empty",
    .refusedVersion = "treating the segment as empty",
    .zeroLengthNote = {},
};

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

/** Durability knobs (CLI: --state-dir / --snapshot-every / --recover). */
struct DurabilityOptions
{
    /** Directory for journal + snapshots; created when absent. */
    std::string stateDir;
    /** Epochs between full snapshots; 0 = final snapshot only. */
    int snapshotEvery = 8;
    /** Transient-IO fault injection (off by default). */
    IoFaultOptions ioFaults;
};

/** @return DomainError when a knob is outside its documented range. */
Status validateDurabilityOptions(const DurabilityOptions &opts);

/** One committed epoch, as journaled. */
struct JournalEntry
{
    /** 1-based count of completed epochs (epoch index + 1). */
    std::uint64_t epoch = 0;
    /** Digest of everything the epoch admitted (see file comment). */
    std::uint32_t eventCrc = 0;
    /** Trace-sink bytes durable through this epoch. */
    std::uint64_t traceBytes = 0;
    /** Trace-sink sequence number through this epoch. */
    std::uint64_t traceSeq = 0;
};

/**
 * The payload framing of every snapshot file.
 *
 * The envelope separates what the *durability* layer must know on
 * recovery (the trace-file frontier to truncate to, and whether the
 * run had already finalized so its run_end event is durable) from the
 * opaque simulator state bytes. The replay digest covers only `state`,
 * so it is identical with and without a trace sink installed.
 */
struct OnlineSnapshotEnvelope
{
    /** true when written by finishRun (run_end already emitted). */
    bool completed = false;
    /** Trace-sink bytes durable as of this snapshot. */
    std::uint64_t traceBytes = 0;
    /** Trace-sink sequence number as of this snapshot. */
    std::uint64_t traceSeq = 0;
    /** Encoded simulator state (eval::encodeOnlineState bytes). */
    std::string state;
};

/** Encode a snapshot envelope to payload bytes. */
std::string encodeSnapshotEnvelope(const OnlineSnapshotEnvelope &env);

/**
 * The envelope of @p env's flag and trace frontier around @p state,
 * streamed: byte for byte encodeSnapshotEnvelope of an envelope that
 * holds state.collect(), without collecting it (`env.state` is not
 * read). The declared CRC is glued from the small prefix's and
 * state.crc (crc32Combine), so no state byte is read to derive it.
 */
SnapshotPayload streamSnapshotEnvelope(const OnlineSnapshotEnvelope &env,
                                       SnapshotPayload state);

/** Decode a snapshot payload; ParseError/SemanticError on bad bytes. */
Result<OnlineSnapshotEnvelope>
decodeSnapshotEnvelope(std::string_view payload);

/** Everything recover() could verify on disk. */
struct RecoveredState
{
    /** Epoch of the snapshot (0 with hasSnapshot = false: none). */
    std::uint64_t snapshotEpoch = 0;
    bool hasSnapshot = false;
    /** Encoded OnlineRunState bytes (decode in eval/online). */
    std::string snapshotPayload;
    /** Journaled epochs after the snapshot, strictly contiguous
     *  (records at or before it are history, skipped). */
    std::vector<JournalEntry> entries;
    /** true when corrupt bytes had to be discarded from the journal. */
    bool tornTail = false;
    /** Truncation point for resuming the journal. */
    std::uint64_t journalValidBytes = 0;
    /** true when the journal file needs re-creation (unusable). */
    bool journalUsable = false;
    /** The segment's record bytes (empty when it is missing or its
     *  header is bad); the snapshot's decoder checks the prefix it
     *  names, beginResume cuts the rest. */
    std::string segment;
    /** Human-readable anomaly notes, in detection order. */
    std::vector<std::string> notes;

    /** @return The newest durable epoch (0 = nothing durable). */
    std::uint64_t
    frontierEpoch() const
    {
        return entries.empty() ? snapshotEpoch : entries.back().epoch;
    }
};

/**
 * The per-run persistence handle. Lifecycle:
 *
 *     open() -> recover() -> beginFresh() | beginResume(rec, bytes)
 *            -> commitEpoch()*            (once per epoch)
 *            -> finishRun()               (final snapshot)
 */
class DurableStateStore
{
  public:
    /** Validate options and create the state directory. */
    static Result<DurableStateStore> open(DurabilityOptions opts);

    /**
     * Read-only scan of the state directory: last good snapshot,
     * verified journal prefix filtered to epochs after the snapshot
     * (records at or before it are skipped without a note) and
     * checked for contiguity (a gap or duplicate ends the usable
     * prefix with a note), and the segment's records. Never mutates
     * disk.
     */
    RecoveredState recover() const;

    /** Discard any previous state and start a fresh journal and an
     *  empty segment. */
    Status beginFresh();

    /**
     * Resume after recover(): truncate the journal to the verified
     * prefix (or re-create it when unusable) and open for append, and
     * cut the segment to the @p segmentBytes record bytes the resumed
     * snapshot names (0 without one: a fresh, empty segment). More
     * bytes than rec.segment holds is a SemanticError.
     */
    Status beginResume(const RecoveredState &rec,
                       std::uint64_t segmentBytes);

    /**
     * Commit one epoch: journal append, then on the snapshot cadence
     * the segment append (when @p segment has an emitter) and a
     * snapshot. @p encodeState is only invoked when a snapshot is
     * actually taken. Brackets the work with the epoch.pre_commit /
     * epoch.post_commit kill points.
     */
    Status
    commitEpoch(const JournalEntry &entry,
                const std::function<SnapshotPayload()> &encodeState,
                const SegmentRecords &segment = {});

    /** Final segment append and snapshot at @p epoch (run
     *  completed). */
    Status finishRun(std::uint64_t epoch,
                     const std::function<SnapshotPayload()> &encodeState,
                     const SegmentRecords &segment = {});

    /** @return Cumulative IO/fault/commit counters. */
    const DurabilityCounters &counters() const { return *counters_; }

    /** @return The configured options. */
    const DurabilityOptions &options() const { return opts_; }

    /** @return The journal file path inside the state directory. */
    std::string journalPath() const { return opts_.stateDir + "/journal.amjl"; }

    /** @return The segment file path inside the state directory. */
    std::string segmentPath() const { return opts_.stateDir + "/jobs.amsg"; }

    /** Encode one journal entry payload (exposed for tests). */
    static std::string encodeEntry(const JournalEntry &entry);

    /** Decode one journal entry payload (exposed for tests). */
    static Result<JournalEntry> decodeEntry(std::string_view payload);

  private:
    /** Snapshot generations kept: the newest, and one to fall back
     *  to when the newest is rejected. */
    static constexpr int kKeepSnapshots = 2;

    DurableStateStore(DurabilityOptions opts)
        : opts_(std::move(opts)),
          snapshots_(opts_.stateDir, kKeepSnapshots),
          io_(IoFaultInjector(opts_.ioFaults), counters_.get())
    {}

    /** Segment append + snapshot at @p epoch. */
    Status
    takeSnapshot(std::uint64_t epoch,
                 const std::function<SnapshotPayload()> &encodeState,
                 const SegmentRecords &segment);

    DurabilityOptions opts_;
    SnapshotStore snapshots_;
    /** Heap-held so IoContext's pointer survives moving the store
     *  (e.g. out of the Result returned by open()). */
    std::unique_ptr<DurabilityCounters> counters_ =
        std::make_unique<DurabilityCounters>();
    IoContext io_;
    std::optional<Journal> journal_;
    std::optional<AppendFile> segment_;
    std::uint64_t lastSnapshotEpoch_ = 0;
};

} // namespace amdahl::durability

#endif // AMDAHL_ROBUSTNESS_DURABILITY_DURABLE_STORE_HH
