#include "robustness/durability/journal.hh"

#include <cerrno>
#include <filesystem>

#include "common/bytes.hh"
#include "common/crc32.hh"
#include "robustness/durability/kill_points.hh"

namespace amdahl::durability {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'J', 'L'};

std::string
encodeHeader()
{
    ByteWriter w;
    w.putU32(static_cast<std::uint32_t>(kMagic[0]) |
             static_cast<std::uint32_t>(kMagic[1]) << 8 |
             static_cast<std::uint32_t>(kMagic[2]) << 16 |
             static_cast<std::uint32_t>(kMagic[3]) << 24);
    w.putU32(Journal::kVersion);
    return w.take();
}

} // namespace

JournalScan
Journal::scan(const std::string &path)
{
    JournalScan out;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return out; // Fresh start: nothing to report.

    auto bytes = readFileBytes(path);
    if (!bytes.ok()) {
        out.notes.push_back("journal unreadable: " +
                            bytes.status().toString());
        return out;
    }
    const std::string data = bytes.take();
    if (data.empty()) {
        out.notes.emplace_back(
            "journal is zero-length (no header); treating as unusable");
        return out;
    }
    if (data.size() < kHeaderBytes ||
        data.compare(0, 4, kMagic, 4) != 0) {
        out.notes.emplace_back(
            "journal header is missing or has the wrong magic; "
            "treating the whole file as unusable");
        return out;
    }
    ByteReader hdr(std::string_view(data).substr(4, 4));
    const std::uint32_t version = hdr.readU32();
    if (version != kVersion) {
        out.notes.push_back(
            "journal version " + std::to_string(version) +
            " does not match supported version " +
            std::to_string(kVersion) + "; treating as unusable");
        return out;
    }

    out.usable = true;
    out.validBytes = kHeaderBytes;
    std::uint64_t pos = kHeaderBytes;
    while (pos < data.size()) {
        if (data.size() - pos < 8) {
            out.tornTail = true;
            out.notes.push_back("torn record frame at offset " +
                                std::to_string(pos) + ": only " +
                                std::to_string(data.size() - pos) +
                                " bytes of an 8-byte prefix");
            break;
        }
        ByteReader frame(std::string_view(data).substr(pos, 8));
        const std::uint32_t len = frame.readU32();
        const std::uint32_t want = frame.readU32();
        if (len > kMaxRecordBytes) {
            out.tornTail = true;
            out.notes.push_back(
                "implausible record length " + std::to_string(len) +
                " at offset " + std::to_string(pos) +
                "; treating the rest of the journal as corrupt");
            break;
        }
        if (data.size() - pos - 8 < len) {
            out.tornTail = true;
            out.notes.push_back(
                "torn record at offset " + std::to_string(pos) +
                ": payload needs " + std::to_string(len) + " bytes, " +
                std::to_string(data.size() - pos - 8) + " present");
            break;
        }
        const std::string_view payload =
            std::string_view(data).substr(pos + 8, len);
        const std::uint32_t got = crc32(payload);
        if (got != want) {
            out.tornTail = true;
            out.notes.push_back(
                "checksum mismatch at offset " + std::to_string(pos) +
                "; treating the rest of the journal as corrupt");
            break;
        }
        pos += 8 + len;
        out.records.push_back(
            ScannedRecord{std::string(payload), pos});
        out.validBytes = pos;
    }
    return out;
}

Result<Journal>
Journal::create(const std::string &path, IoContext &io)
{
    const std::string header = encodeHeader();
    PosixFile file;
    const Status st = io.run("journal create", [&]() -> Status {
        auto opened = PosixFile::createTruncate(path);
        if (!opened.ok())
            return opened.status();
        file = opened.take();
        if (Status w = file.writeAll(header.data(), header.size());
            !w.isOk())
            return w;
        return file.sync();
    });
    if (!st.isOk())
        return st;
    return Journal(std::move(file), kHeaderBytes);
}

Result<Journal>
Journal::openResume(const std::string &path, std::uint64_t validBytes,
                    IoContext &io)
{
    if (validBytes < kHeaderBytes)
        return Status::error(ErrorKind::SemanticError, 0,
                             "cannot resume a journal without a usable "
                             "header; start fresh instead");
    PosixFile file;
    const Status st = io.run("journal resume", [&]() -> Status {
        auto opened = PosixFile::openAppend(path);
        if (!opened.ok())
            return opened.status();
        file = opened.take();
        // Discard the torn tail so the next append starts at the end
        // of the verified prefix.
        if (Status t = file.truncate(validBytes); !t.isOk())
            return t;
        return file.sync();
    });
    if (!st.isOk())
        return st;
    return Journal(std::move(file), validBytes);
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
    const std::uint64_t before = size_;
    const Status st = io.run("journal append", [&]() -> Status {
        // A failed earlier attempt may have left partial bytes; put
        // the file back to the verified size before writing again.
        auto sized = file_.size();
        if (!sized.ok())
            return sized.status();
        if (sized.value() != before) {
            if (Status t = file_.truncate(before); !t.isOk())
                return t;
        }
        const std::size_t half = record.size() / 2;
        if (Status w = file_.writeAll(record.data(), half); !w.isOk())
            return w;
        // Torn-write crash site: the first half of the record is in
        // the OS buffer (and possibly on disk), the rest never lands.
        killPoint("journal.mid_append");
        if (Status w = file_.writeAll(record.data() + half,
                                      record.size() - half);
            !w.isOk())
            return w;
        return file_.sync();
    });
    if (!st.isOk())
        return st;
    size_ = before + record.size();
    killPoint("journal.post_append");
    return Status::ok();
}

Status
Journal::reset(IoContext &io)
{
    killPoint("journal.pre_reset");
    const Status st = io.run("journal reset", [&]() -> Status {
        if (Status t = file_.truncate(kHeaderBytes); !t.isOk())
            return t;
        return file_.sync();
    });
    if (!st.isOk())
        return st;
    size_ = kHeaderBytes;
    killPoint("journal.post_reset");
    return Status::ok();
}

} // namespace amdahl::durability
