#include "robustness/durability/durable_store.hh"

#include <filesystem>

#include "common/bytes.hh"
#include "common/crc32.hh"
#include "robustness/durability/kill_points.hh"

namespace amdahl::durability {

Status
validateDurabilityOptions(const DurabilityOptions &opts)
{
    if (opts.stateDir.empty())
        return Status::error(ErrorKind::DomainError, 0,
                             "state directory must not be empty");
    if (opts.snapshotEvery < 0)
        return Status::error(ErrorKind::DomainError, 0,
                             "snapshot cadence must be >= 0 (0 = final "
                             "snapshot only), got ",
                             opts.snapshotEvery);
    return validateIoFaultOptions(opts.ioFaults);
}

namespace {

/** The envelope up to the state bytes: flag, frontier, state length. */
std::string
envelopePrefix(const OnlineSnapshotEnvelope &env, std::uint64_t stateLen)
{
    ByteWriter w;
    w.putU32(env.completed ? 1 : 0);
    w.putU64(env.traceBytes);
    w.putU64(env.traceSeq);
    w.putU64(stateLen);
    return w.take();
}

/** The one layout of a journal entry (see FieldWriter). */
template <class Io, class Entry>
void
walkEntry(Io &io, Entry &entry)
{
    io(entry.epoch, entry.eventCrc, entry.traceBytes, entry.traceSeq);
}

} // namespace

std::string
encodeSnapshotEnvelope(const OnlineSnapshotEnvelope &env)
{
    return envelopePrefix(env, env.state.size()) + env.state;
}

SnapshotPayload
streamSnapshotEnvelope(const OnlineSnapshotEnvelope &env,
                       SnapshotPayload state)
{
    std::string prefix = envelopePrefix(env, state.size);
    const std::uint64_t size = prefix.size() + state.size;
    const std::uint32_t crc =
        crc32Combine(crc32(prefix), state.crc, state.size);
    return SnapshotPayload(
        size, crc,
        [prefix = std::move(prefix),
         emitState = std::move(state.emit)](const PayloadSink &sink) {
            sink(prefix);
            emitState(sink);
        });
}

Result<OnlineSnapshotEnvelope>
decodeSnapshotEnvelope(std::string_view payload)
{
    ByteReader r(payload);
    OnlineSnapshotEnvelope env;
    const std::uint32_t completed = r.readU32();
    env.traceBytes = r.readU64();
    env.traceSeq = r.readU64();
    env.state = r.readString();
    r.expectEnd();
    if (!r.ok())
        return r.status();
    if (completed > 1)
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot envelope completed flag is ",
                             completed, "; expected 0 or 1");
    env.completed = completed == 1;
    return env;
}

std::string
DurableStateStore::encodeEntry(const JournalEntry &entry)
{
    FieldWriter w;
    walkEntry(w, entry);
    return w.take();
}

Result<JournalEntry>
DurableStateStore::decodeEntry(std::string_view payload)
{
    FieldReader r(payload);
    JournalEntry entry;
    walkEntry(r, entry);
    r.expectEnd();
    if (!r.ok())
        return r.status();
    if (entry.epoch == 0)
        return Status::error(ErrorKind::SemanticError, 0,
                             "journal entry has epoch 0; committed "
                             "epochs are 1-based");
    return entry;
}

Result<DurableStateStore>
DurableStateStore::open(DurabilityOptions opts)
{
    if (Status st = validateDurabilityOptions(opts); !st.isOk())
        return st;
    std::error_code ec;
    std::filesystem::create_directories(opts.stateDir, ec);
    if (ec)
        return Status::error(ErrorKind::IoError, 0,
                             "cannot create state directory ",
                             opts.stateDir, ": ", ec.message());
    return DurableStateStore(std::move(opts));
}

RecoveredState
DurableStateStore::recover() const
{
    RecoveredState rec;

    const SnapshotLoad snap = snapshots_.loadLatest();
    for (const std::string &note : snap.rejected)
        rec.notes.push_back("snapshot rejected: " + note);
    if (snap.snapshot) {
        rec.hasSnapshot = true;
        rec.snapshotEpoch = snap.snapshot->epoch;
        rec.snapshotPayload = snap.snapshot->payload;
    }

    FileScan segment = AppendFile::scan(segmentPath(), kSegmentFormat);
    for (const std::string &note : segment.notes)
        rec.notes.push_back("segment: " + note);
    rec.segment = std::move(segment.body);

    const JournalScan scan = Journal::scan(journalPath());
    for (const std::string &note : scan.notes)
        rec.notes.push_back("journal: " + note);
    rec.journalUsable = scan.usable;
    rec.tornTail = scan.tornTail;

    // Decode the verified records into entries, keeping only the
    // strictly contiguous run that continues the snapshot. Records at
    // or before the snapshot epoch are history the snapshot already
    // holds — skipped, but still part of the valid prefix. Anything
    // out of order (gap, duplicate, undecodable payload) ends the
    // usable prefix with a note, and the journal is truncated there
    // on resume.
    std::uint64_t lastAccepted = rec.snapshotEpoch;
    std::uint64_t acceptedValidBytes = Journal::kHeaderBytes;
    for (const ScannedRecord &record : scan.records) {
        auto decoded = decodeEntry(record.payload);
        if (!decoded.ok()) {
            rec.notes.push_back("journal: undecodable record before "
                                "offset " +
                                std::to_string(record.endOffset) + ": " +
                                decoded.status().message());
            rec.tornTail = true;
            break;
        }
        const JournalEntry entry = decoded.take();
        if (entry.epoch <= rec.snapshotEpoch) {
            acceptedValidBytes = record.endOffset;
            continue;
        }
        if (entry.epoch != lastAccepted + 1) {
            rec.notes.push_back(
                "journal: record for epoch " +
                std::to_string(entry.epoch) + " breaks contiguity "
                "(expected epoch " +
                std::to_string(lastAccepted + 1) +
                "); discarding it and the rest of the journal");
            rec.tornTail = true;
            break;
        }
        rec.entries.push_back(entry);
        lastAccepted = entry.epoch;
        acceptedValidBytes = record.endOffset;
    }
    rec.journalValidBytes =
        scan.usable ? acceptedValidBytes : Journal::kHeaderBytes;
    return rec;
}

Status
DurableStateStore::beginFresh()
{
    // Drop every artifact this store owns; unrelated files in the
    // directory are left alone.
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(opts_.stateDir, ec)) {
        const std::string name = entry.path().filename().string();
        const bool ours =
            name == "journal.amjl" || name == "jobs.amsg" ||
            (name.starts_with("snapshot-") &&
             (name.ends_with(".amss") || name.ends_with(".amss.tmp")));
        if (ours) {
            if (Status st = removeFile(entry.path().string());
                !st.isOk())
                return st;
        }
    }
    auto journal = Journal::create(journalPath(), io_);
    if (!journal.ok())
        return journal.status();
    journal_ = journal.take();
    auto segment = AppendFile::create(segmentPath(), kSegmentFormat, io_);
    if (!segment.ok())
        return segment.status();
    segment_ = segment.take();
    lastSnapshotEpoch_ = 0;
    return Status::ok();
}

Status
DurableStateStore::beginResume(const RecoveredState &rec,
                               std::uint64_t segmentBytes)
{
    if (segmentBytes > rec.segment.size())
        return Status::error(ErrorKind::SemanticError, 0,
                             "cannot resume a segment of ",
                             rec.segment.size(), " record bytes at ",
                             segmentBytes);
    if (rec.journalUsable) {
        auto journal =
            Journal::openResume(journalPath(), rec.journalValidBytes,
                                io_);
        if (!journal.ok())
            return journal.status();
        journal_ = journal.take();
    } else {
        // The journal file itself was unusable (zero-length, bad
        // magic, version skew): its epochs are lost, but the snapshot
        // is intact — re-create the journal and continue from there.
        auto journal = Journal::create(journalPath(), io_);
        if (!journal.ok())
            return journal.status();
        journal_ = journal.take();
    }
    // No byte the resumed snapshot names is cut, and no kept older
    // snapshot names more: the segment only ever grows by appends.
    auto segment =
        segmentBytes == 0
            ? AppendFile::create(segmentPath(), kSegmentFormat, io_)
            : AppendFile::openResume(segmentPath(), segmentBytes,
                                     kSegmentFormat, io_);
    if (!segment.ok())
        return segment.status();
    segment_ = segment.take();
    lastSnapshotEpoch_ = rec.snapshotEpoch;
    return Status::ok();
}

Status
DurableStateStore::takeSnapshot(
    std::uint64_t epoch,
    const std::function<SnapshotPayload()> &encodeState,
    const SegmentRecords &segment)
{
    // The records a snapshot names are durable before it is.
    if (segment.emit) {
        if (Status st = segment_->append(segment.size, segment.emit, io_);
            !st.isOk())
            return st;
    }
    const SnapshotPayload payload = encodeState();
    if (Status st = snapshots_.write(epoch, payload, io_); !st.isOk())
        return st;
    ++counters_->snapshotsWritten;
    lastSnapshotEpoch_ = epoch;
    return Status::ok();
}

Status
DurableStateStore::commitEpoch(
    const JournalEntry &entry,
    const std::function<SnapshotPayload()> &encodeState,
    const SegmentRecords &segment)
{
    if (!journal_)
        return Status::error(ErrorKind::SemanticError, 0,
                             "commitEpoch before beginFresh/"
                             "beginResume");
    killPoint("epoch.pre_commit");
    if (Status st = journal_->append(encodeEntry(entry), io_);
        !st.isOk())
        return st;
    ++counters_->journalAppends;
    if (opts_.snapshotEvery > 0 &&
        entry.epoch >= lastSnapshotEpoch_ +
                           static_cast<std::uint64_t>(opts_.snapshotEvery)) {
        if (Status st = takeSnapshot(entry.epoch, encodeState, segment);
            !st.isOk())
            return st;
    }
    killPoint("epoch.post_commit");
    return Status::ok();
}

Status
DurableStateStore::finishRun(
    std::uint64_t epoch,
    const std::function<SnapshotPayload()> &encodeState,
    const SegmentRecords &segment)
{
    if (!journal_)
        return Status::error(ErrorKind::SemanticError, 0,
                             "finishRun before beginFresh/beginResume");
    // Always rewrite the final snapshot, even when the cadence already
    // anchored at this epoch: the finishing envelope differs (its
    // completed flag and trace frontier cover the run_end event).
    return takeSnapshot(epoch, encodeState, segment);
}

} // namespace amdahl::durability
