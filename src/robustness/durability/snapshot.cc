#include "robustness/durability/snapshot.hh"

#include <algorithm>
#include <charconv>
#include <filesystem>

#include "common/bytes.hh"
#include "common/check.hh"
#include "common/crc32.hh"
#include "robustness/durability/kill_points.hh"

namespace amdahl::durability {

namespace {

constexpr std::string_view kMagic = "AMSS";
constexpr std::string_view kPrefix = "snapshot-";
constexpr std::string_view kSuffix = ".amss";
constexpr std::string_view kTmpSuffix = ".amss.tmp";

std::string
epochTag(std::uint64_t epoch)
{
    std::string digits = std::to_string(epoch);
    if (digits.size() < 8)
        digits.insert(0, 8 - digits.size(), '0');
    return digits;
}

/** @return The epoch encoded in a `snapshot-XXXXXXXX.amss` file name,
 *  or nullopt when @p name does not match the pattern. */
std::optional<std::uint64_t>
epochFromName(std::string_view name)
{
    if (name.size() < kPrefix.size() + kSuffix.size() + 1 ||
        name.substr(0, kPrefix.size()) != kPrefix ||
        name.substr(name.size() - kSuffix.size()) != kSuffix)
        return std::nullopt;
    const std::string_view digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    // from_chars refuses a sign and reports overflow, so an epoch
    // past 2^64 - 1 names no snapshot instead of wrapping onto one.
    std::uint64_t epoch = 0;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), epoch);
    if (ec != std::errc() || end != digits.data() + digits.size())
        return std::nullopt;
    return epoch;
}

} // namespace

Result<SnapshotData>
SnapshotStore::decodeFile(const std::string &path)
{
    auto bytes = readFileBytes(path);
    if (!bytes.ok())
        return bytes.status();
    const std::string data = bytes.take();
    if (data.empty())
        return Status::error(ErrorKind::ParseError, 0,
                             "snapshot is zero-length");
    if (!data.starts_with(kMagic))
        return Status::error(ErrorKind::ParseError, 0,
                             "snapshot magic is missing or wrong");
    ByteReader r(std::string_view(data).substr(4));
    const std::uint32_t version = r.readU32();
    const std::uint64_t epoch = r.readU64();
    const std::uint64_t len = r.readU64();
    const std::uint32_t want = r.readU32();
    if (!r.ok())
        return r.status();
    if (version != kVersion)
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot version ", version,
                             " does not match supported version ",
                             kVersion);
    if (len > kMaxPayloadBytes)
        return Status::error(ErrorKind::ParseError, 0,
                             "implausible snapshot payload length ",
                             len);
    if (r.remaining() != len)
        return Status::error(ErrorKind::ParseError, 0,
                             "snapshot payload truncated: header "
                             "promises ",
                             len, " bytes, ", r.remaining(),
                             " present");
    const std::string_view payload =
        std::string_view(data).substr(data.size() - r.remaining());
    if (crc32(payload) != want)
        return Status::error(ErrorKind::ParseError, 0,
                             "snapshot checksum mismatch");
    return SnapshotData{epoch, std::string(payload)};
}

SnapshotLoad
SnapshotStore::loadLatest() const
{
    SnapshotLoad out;
    std::vector<std::pair<std::uint64_t, std::string>> candidates;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (const auto epoch = epochFromName(name))
            candidates.emplace_back(*epoch, entry.path().string());
    }
    // Newest first; the filename epoch is only a hint — the decoded
    // header epoch is authoritative and must agree.
    std::sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    for (const auto &[epoch, path] : candidates) {
        auto decoded = decodeFile(path);
        if (!decoded.ok()) {
            out.rejected.push_back(path + ": " +
                                   decoded.status().toString());
            continue;
        }
        SnapshotData snap = decoded.take();
        if (snap.epoch != epoch) {
            out.rejected.push_back(
                path + ": header epoch " + std::to_string(snap.epoch) +
                " disagrees with the file name");
            continue;
        }
        out.snapshot = std::move(snap);
        break;
    }
    return out;
}

std::string
SnapshotStore::pathFor(std::uint64_t epoch) const
{
    return dir_ + "/" + std::string(kPrefix) + epochTag(epoch) +
           std::string(kSuffix);
}

SnapshotPayload::SnapshotPayload(
    std::uint64_t size, std::uint32_t crc,
    std::function<void(const PayloadSink &)> emit)
    : size(size), crc(crc), emit(std::move(emit))
{}

SnapshotPayload::SnapshotPayload(std::string bytes)
    : size(bytes.size()), crc(crc32(bytes)),
      emit([bytes = std::move(bytes)](const PayloadSink &sink) {
          sink(bytes);
      })
{}

std::string
SnapshotPayload::collect() const
{
    std::string out;
    out.reserve(size);
    emit([&](std::string_view piece) { out.append(piece); });
    return out;
}

Status
SnapshotStore::write(std::uint64_t epoch, const SnapshotPayload &payload,
                     IoContext &io)
{
    if (payload.size > kMaxPayloadBytes)
        return Status::error(ErrorKind::DomainError, 0,
                             "snapshot payload of ", payload.size,
                             " bytes exceeds the ", kMaxPayloadBytes,
                             "-byte limit its reader accepts");
    ByteWriter header;
    header.putU64(epoch);
    header.putU64(payload.size);
    header.putU32(payload.crc);
    const std::string head = fileHeader(kMagic, kVersion) + header.take();

    const std::string finalPath = pathFor(epoch);
    const std::string tmpPath = dir_ + "/" + std::string(kPrefix) +
                                epochTag(epoch) +
                                std::string(kTmpSuffix);

    killPoint("snapshot.pre_write");
    Status st = io.run("snapshot write", [&]() -> Status {
        // Recreate the tmp from scratch on every attempt, so a failed
        // attempt never leaves half-written bytes in the next one.
        auto opened = PosixFile::createTruncate(tmpPath);
        if (!opened.ok())
            return opened.status();
        PosixFile tmp = opened.take();
        if (Status w = tmp.writeAll(head.data(), head.size()); !w.isOk())
            return w;
        // Torn-write crash site: a partial tmp file, never renamed —
        // recovery must ignore it entirely.
        std::uint32_t folded = 0;
        if (Status w = writeTearingAtHalf(
                tmp, payload.size,
                [&](const PayloadSink &sink) {
                    payload.emit([&](std::string_view piece) {
                        if constexpr (checkedBuild)
                            folded = crc32Update(folded, piece.data(),
                                                 piece.size());
                        sink(piece);
                    });
                },
                "snapshot.mid_write", "snapshot payload");
            !w.isOk())
            return w;
        AMDAHL_ASSERT(folded == payload.crc, "snapshot payload for epoch ",
                      epoch, " emitted bytes with CRC ", folded,
                      "; its declared CRC is ", payload.crc);
        if (Status s = tmp.sync(); !s.isOk())
            return s;
        return tmp.close();
    });
    if (!st.isOk())
        return st;

    killPoint("snapshot.pre_rename");
    st = io.run("snapshot rename",
                [&]() -> Status { return renameFile(tmpPath, finalPath); });
    if (!st.isOk())
        return st;
    killPoint("snapshot.post_rename");
    st = io.run("state dir sync",
                [&]() -> Status { return syncDir(dir_); });
    if (!st.isOk())
        return st;

    // Prune: drop generations beyond the keep count and stale tmps.
    // Best-effort — a prune failure must not fail the commit.
    std::vector<std::pair<std::uint64_t, std::string>> generations;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (const auto e = epochFromName(name))
            generations.emplace_back(*e, entry.path().string());
        else if (name.size() > kTmpSuffix.size() &&
                 name.substr(name.size() - kTmpSuffix.size()) ==
                     kTmpSuffix)
            (void)removeFile(entry.path().string());
    }
    std::sort(generations.begin(), generations.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    for (std::size_t i = static_cast<std::size_t>(keep_);
         i < generations.size(); ++i)
        (void)removeFile(generations[i].second);
    return Status::ok();
}

} // namespace amdahl::durability
