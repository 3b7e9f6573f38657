#include "robustness/durability/segment.hh"

#include <filesystem>

#include "common/bytes.hh"
#include "robustness/durability/kill_points.hh"

namespace amdahl::durability {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'S', 'G'};

std::string
encodeHeader()
{
    ByteWriter w;
    w.putU32(Segment::kVersion);
    return std::string(kMagic, 4) + w.take();
}

} // namespace

SegmentScan
Segment::scan(const std::string &path)
{
    SegmentScan out;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return out;
    auto bytes = readFileBytes(path);
    if (!bytes.ok()) {
        out.notes.push_back("segment unreadable: " +
                            bytes.status().toString());
        return out;
    }
    std::string data = bytes.take();
    if (data.size() < kHeaderBytes || data.compare(0, 4, kMagic, 4) != 0) {
        out.notes.emplace_back(
            "segment header is missing or has the wrong magic; "
            "treating the segment as empty");
        return out;
    }
    ByteReader hdr(std::string_view(data).substr(4, 4));
    const std::uint32_t version = hdr.readU32();
    if (version != kVersion) {
        out.notes.push_back("segment version " + std::to_string(version) +
                            " does not match supported version " +
                            std::to_string(kVersion) +
                            "; treating the segment as empty");
        return out;
    }
    data.erase(0, kHeaderBytes);
    out.records = std::move(data);
    return out;
}

Result<Segment>
Segment::create(const std::string &path, const std::string &dir,
                IoContext &io)
{
    const std::string header = encodeHeader();
    PosixFile file;
    const Status st = io.run("segment create", [&]() -> Status {
        auto opened = PosixFile::createTruncate(path);
        if (!opened.ok())
            return opened.status();
        file = opened.take();
        if (Status w = file.writeAll(header.data(), header.size());
            !w.isOk())
            return w;
        if (Status s = file.sync(); !s.isOk())
            return s;
        // The file must be durable under its name before a snapshot
        // that names it is.
        return syncDir(dir);
    });
    if (!st.isOk())
        return st;
    return Segment(std::move(file), 0);
}

Result<Segment>
Segment::openResume(const std::string &path, std::uint64_t recordBytes,
                    IoContext &io)
{
    PosixFile file;
    const Status st = io.run("segment resume", [&]() -> Status {
        auto opened = PosixFile::openAppend(path);
        if (!opened.ok())
            return opened.status();
        file = opened.take();
        // Cut the records no surviving snapshot names: a torn append,
        // or one whose snapshot was never published. Redo writes the
        // same bytes again.
        if (Status t = file.truncate(kHeaderBytes + recordBytes);
            !t.isOk())
            return t;
        return file.sync();
    });
    if (!st.isOk())
        return st;
    return Segment(std::move(file), recordBytes);
}

Status
Segment::append(const SegmentRecords &records, IoContext &io)
{
    const std::uint64_t before = recordBytes_;
    if (records.size < before)
        return Status::error(ErrorKind::SemanticError, 0,
                             "segment append to ", records.size,
                             " record bytes is below its durable end ",
                             before);
    const Status st = io.run("segment append", [&]() -> Status {
        // A failed earlier attempt may have left partial bytes; put
        // the file back to the durable end before writing again.
        auto sized = file_.size();
        if (!sized.ok())
            return sized.status();
        if (sized.value() != kHeaderBytes + before) {
            if (Status t = file_.truncate(kHeaderBytes + before);
                !t.isOk())
                return t;
        }
        if (Status w = writeTearingAtHalf(
                file_, records.size - before,
                [&](const PayloadSink &sink) {
                    records.emit(before, sink);
                },
                "segment.mid_append", "segment records");
            !w.isOk())
            return w;
        killPoint("segment.pre_sync");
        return file_.sync();
    });
    if (!st.isOk())
        return st;
    recordBytes_ = records.size;
    return Status::ok();
}

} // namespace amdahl::durability
