#include "robustness/durability/append_file.hh"

#include <algorithm>
#include <filesystem>

#include "common/bytes.hh"
#include "robustness/durability/kill_points.hh"

namespace amdahl::durability {

namespace {

/** @return "<name> <op>", the IoContext label of one operation. */
std::string
label(const FileFormat &format, std::string_view op)
{
    return std::string(format.name) + " " + std::string(op);
}

} // namespace

std::string
fileHeader(std::string_view magic, std::uint32_t version)
{
    ByteWriter w;
    w.putU32(version);
    return std::string(magic) + w.take();
}

Status
writeTearingAtHalf(PosixFile &file, std::uint64_t size,
                   const std::function<void(const PayloadSink &)> &emit,
                   std::string_view tearSite, std::string_view what)
{
    const std::uint64_t half = size / 2;
    std::uint64_t written = 0;
    bool torn = false;
    const auto tearAtHalf = [&] {
        if (!torn && written == half) {
            torn = true;
            killPoint(tearSite);
        }
    };
    Status w = Status::ok();
    tearAtHalf();
    emit([&](std::string_view piece) {
        while (w.isOk() && !piece.empty()) {
            std::size_t n = piece.size();
            if (written < half)
                n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(n, half - written));
            w = file.writeAll(piece.data(), n);
            written += n;
            piece.remove_prefix(n);
            tearAtHalf();
        }
    });
    if (!w.isOk())
        return w;
    if (written != size)
        return Status::error(ErrorKind::SemanticError, 0, what,
                             " emitted ", written,
                             " bytes; its size was declared as ", size);
    return Status::ok();
}

FileScan
AppendFile::scan(const std::string &path, const FileFormat &format)
{
    FileScan out;
    const std::string name(format.name);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return out; // Fresh start: nothing to report.
    auto bytes = readFileBytes(path);
    if (!bytes.ok()) {
        out.notes.push_back(name + " unreadable: " +
                            bytes.status().toString());
        return out;
    }
    std::string data = bytes.take();
    if (data.empty() && !format.zeroLengthNote.empty()) {
        out.notes.emplace_back(format.zeroLengthNote);
        return out;
    }
    if (data.size() < kHeaderBytes || !data.starts_with(format.magic)) {
        out.notes.push_back(name +
                            " header is missing or has the wrong magic; " +
                            std::string(format.refusedMagic));
        return out;
    }
    ByteReader hdr(std::string_view(data).substr(4, 4));
    if (const std::uint32_t version = hdr.readU32();
        version != format.version) {
        out.notes.push_back(name + " version " + std::to_string(version) +
                            " does not match supported version " +
                            std::to_string(format.version) + "; " +
                            std::string(format.refusedVersion));
        return out;
    }
    data.erase(0, kHeaderBytes);
    out.usable = true;
    out.body = std::move(data);
    return out;
}

Result<AppendFile>
AppendFile::create(const std::string &path, const FileFormat &format,
                   IoContext &io)
{
    const std::string header = fileHeader(format.magic, format.version);
    std::string dir = std::filesystem::path(path).parent_path().string();
    if (dir.empty())
        dir = ".";
    PosixFile file;
    const Status st = io.run(label(format, "create"), [&]() -> Status {
        auto opened = PosixFile::createTruncate(path);
        if (!opened.ok())
            return opened.status();
        file = opened.take();
        if (Status w = file.writeAll(header.data(), header.size());
            !w.isOk())
            return w;
        if (Status s = file.sync(); !s.isOk())
            return s;
        return syncDir(dir);
    });
    if (!st.isOk())
        return st;
    return AppendFile(std::move(file), format, 0);
}

Result<AppendFile>
AppendFile::openResume(const std::string &path, std::uint64_t bodyBytes,
                       const FileFormat &format, IoContext &io)
{
    PosixFile file;
    const Status st = io.run(label(format, "resume"), [&]() -> Status {
        auto opened = PosixFile::openAppend(path);
        if (!opened.ok())
            return opened.status();
        file = opened.take();
        // Cut what the owner did not verify (a torn append, or one no
        // published snapshot names), so the next append starts at the
        // end of the verified body.
        if (Status t = file.truncate(kHeaderBytes + bodyBytes); !t.isOk())
            return t;
        return file.sync();
    });
    if (!st.isOk())
        return st;
    return AppendFile(std::move(file), format, bodyBytes);
}

Status
AppendFile::append(
    std::uint64_t end,
    const std::function<void(std::uint64_t, const PayloadSink &)> &emit,
    IoContext &io)
{
    const std::uint64_t before = body_;
    if (end < before)
        return Status::error(ErrorKind::SemanticError, 0, format_->name,
                             " append to ", end,
                             " record bytes is below its durable end ",
                             before);
    const Status st = io.run(label(*format_, "append"), [&]() -> Status {
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
                file_, end - before,
                [&](const PayloadSink &sink) { emit(before, sink); },
                format_->midAppendSite, label(*format_, "records"));
            !w.isOk())
            return w;
        if (!format_->preSyncSite.empty())
            killPoint(format_->preSyncSite);
        return file_.sync();
    });
    if (!st.isOk())
        return st;
    body_ = end;
    return Status::ok();
}

} // namespace amdahl::durability
