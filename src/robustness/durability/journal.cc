#include "robustness/durability/journal.hh"

#include "common/bytes.hh"
#include "common/crc32.hh"
#include "robustness/durability/kill_points.hh"

namespace amdahl::durability {

namespace {

constexpr FileFormat kFormat{
    .name = "journal",
    .magic = "AMJL",
    .version = Journal::kVersion,
    .midAppendSite = "journal.mid_append",
    .preSyncSite = {},
    .refusedMagic = "treating the whole file as unusable",
    .refusedVersion = "treating as unusable",
    .zeroLengthNote =
        "journal is zero-length (no header); treating as unusable",
};

} // namespace

JournalScan
Journal::scan(const std::string &path)
{
    FileScan file = AppendFile::scan(path, kFormat);
    JournalScan out;
    out.usable = file.usable;
    out.notes = std::move(file.notes);
    if (!out.usable)
        return out;

    // Offsets in notes and records are file offsets, past the header.
    const std::string_view data = file.body;
    out.validBytes = kHeaderBytes;
    std::uint64_t pos = 0;
    while (pos < data.size()) {
        const std::uint64_t at = kHeaderBytes + pos;
        if (data.size() - pos < 8) {
            out.tornTail = true;
            out.notes.push_back("torn record frame at offset " +
                                std::to_string(at) + ": only " +
                                std::to_string(data.size() - pos) +
                                " bytes of an 8-byte prefix");
            break;
        }
        ByteReader frame(data.substr(pos, 8));
        const std::uint32_t len = frame.readU32();
        const std::uint32_t want = frame.readU32();
        if (len > kMaxRecordBytes) {
            out.tornTail = true;
            out.notes.push_back(
                "implausible record length " + std::to_string(len) +
                " at offset " + std::to_string(at) +
                "; treating the rest of the journal as corrupt");
            break;
        }
        if (data.size() - pos - 8 < len) {
            out.tornTail = true;
            out.notes.push_back(
                "torn record at offset " + std::to_string(at) +
                ": payload needs " + std::to_string(len) + " bytes, " +
                std::to_string(data.size() - pos - 8) + " present");
            break;
        }
        const std::string_view payload = data.substr(pos + 8, len);
        if (crc32(payload) != want) {
            out.tornTail = true;
            out.notes.push_back(
                "checksum mismatch at offset " + std::to_string(at) +
                "; treating the rest of the journal as corrupt");
            break;
        }
        pos += 8 + len;
        out.validBytes = kHeaderBytes + pos;
        out.records.push_back(
            ScannedRecord{std::string(payload), out.validBytes});
    }
    return out;
}

Result<Journal>
Journal::create(const std::string &path, IoContext &io)
{
    auto file = AppendFile::create(path, kFormat, io);
    if (!file.ok())
        return file.status();
    return Journal(file.take());
}

Result<Journal>
Journal::openResume(const std::string &path, std::uint64_t validBytes,
                    IoContext &io)
{
    if (validBytes < kHeaderBytes)
        return Status::error(ErrorKind::SemanticError, 0,
                             "cannot resume a journal without a usable "
                             "header; start fresh instead");
    auto file =
        AppendFile::openResume(path, validBytes - kHeaderBytes, kFormat, io);
    if (!file.ok())
        return file.status();
    return Journal(file.take());
}

Status
Journal::append(std::string_view payload, IoContext &io)
{
    ByteWriter frame;
    frame.putU32(static_cast<std::uint32_t>(payload.size()));
    frame.putU32(crc32(payload));
    std::string record = frame.take();
    record.append(payload.data(), payload.size());

    killPoint("journal.pre_append");
    if (Status st = file_.append(
            file_.bodyBytes() + record.size(),
            [&](std::uint64_t, const PayloadSink &sink) { sink(record); },
            io);
        !st.isOk())
        return st;
    killPoint("journal.post_append");
    return Status::ok();
}

} // namespace amdahl::durability
