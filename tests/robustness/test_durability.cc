/**
 * @file
 * Unit tests for the durability layer: codec, journal, snapshots,
 * deterministic IO-fault injection, and the DurableStateStore commit
 * and recovery protocol.
 *
 * On-disk corruption coverage lives in two places: synthetic
 * corruption is crafted inline here (torn tails, bit flips, stale
 * records), and the checked-in corpus under
 * tests/data/malformed/durability/ pins the byte-level formats so a
 * codec change that silently accepts garbage fails loudly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/crc32.hh"
#include "common/status.hh"
#include "robustness/durability/append_file.hh"
#include "robustness/durability/durable_store.hh"
#include "robustness/durability/io_faults.hh"
#include "robustness/durability/journal.hh"
#include "robustness/durability/kill_points.hh"
#include "robustness/durability/posix_io.hh"
#include "robustness/durability/snapshot.hh"

#ifndef AMDAHL_TEST_DATA_DIR
#error "AMDAHL_TEST_DATA_DIR must point at tests/data"
#endif

namespace amdahl::durability {
namespace {

namespace fs = std::filesystem;

/** A per-test scratch directory, wiped at the start of each test. */
fs::path
freshDir()
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    fs::path dir = fs::temp_directory_path() / "amdahl_durability_test" /
                   (std::string(info->test_suite_name()) + "." +
                    info->name());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void
writeBytes(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::string
readBytes(const fs::path &path)
{
    auto bytes = readFileBytes(path.string());
    EXPECT_TRUE(bytes.ok()) << bytes.status().toString();
    return bytes.ok() ? bytes.take() : std::string();
}

/** An IoContext with injection disabled, for direct layer tests. */
struct PlainIo
{
    DurabilityCounters counters;
    IoContext io{IoFaultInjector(IoFaultOptions{}), &counters};
};

// --- codec -----------------------------------------------------------

TEST(DurabilityCodec, RoundTripsEveryPrimitive)
{
    ByteWriter w;
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putF64(-1234.5678);
    w.putString("length-prefixed \0 bytes");
    w.putF64Vector({0.0, -0.25, 1e300});
    w.putU64Vector({1, 2, 3});

    ByteReader r(w.bytes());
    EXPECT_EQ(r.readU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.readU64(), 0x0123456789ABCDEFull);
    EXPECT_DOUBLE_EQ(r.readF64(), -1234.5678);
    EXPECT_EQ(r.readString(), "length-prefixed \0 bytes");
    EXPECT_EQ(r.readF64Vector(),
              (std::vector<double>{0.0, -0.25, 1e300}));
    EXPECT_EQ(r.readU64Vector(), (std::vector<std::uint64_t>{1, 2, 3}));
    r.expectEnd();
    EXPECT_TRUE(r.ok()) << r.status().toString();
}

TEST(DurabilityCodec, UnderrunLatchesAParseError)
{
    ByteWriter w;
    w.putU32(7);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readU64(), 0u); // only 4 bytes present
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().kind(), ErrorKind::ParseError);
    // Every subsequent read stays zero instead of touching memory.
    EXPECT_EQ(r.readU32(), 0u);
    EXPECT_EQ(r.readString(), "");
    EXPECT_TRUE(r.readF64Vector().empty());
}

TEST(DurabilityCodec, ImplausibleLengthPrefixIsRejected)
{
    ByteWriter w;
    w.putU64(1ull << 40); // string claims a terabyte
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readString(), "");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().kind(), ErrorKind::ParseError);
}

TEST(DurabilityCodec, TrailingGarbageFailsExpectEnd)
{
    ByteWriter w;
    w.putU32(1);
    w.putU32(2);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readU32(), 1u);
    r.expectEnd();
    EXPECT_FALSE(r.ok());
}

TEST(DurabilityCodec, JournalEntryRoundTrips)
{
    const JournalEntry entry{42, 0xCAFEF00Du, 9001, 17};
    auto decoded =
        DurableStateStore::decodeEntry(DurableStateStore::encodeEntry(entry));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded.value().epoch, entry.epoch);
    EXPECT_EQ(decoded.value().eventCrc, entry.eventCrc);
    EXPECT_EQ(decoded.value().traceBytes, entry.traceBytes);
    EXPECT_EQ(decoded.value().traceSeq, entry.traceSeq);
}

TEST(DurabilityCodec, JournalEntryRejectsEpochZeroAndShortPayloads)
{
    const std::string good =
        DurableStateStore::encodeEntry(JournalEntry{0, 1, 2, 3});
    auto zero = DurableStateStore::decodeEntry(good);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.status().kind(), ErrorKind::SemanticError);

    const std::string truncated =
        DurableStateStore::encodeEntry(JournalEntry{1, 1, 2, 3})
            .substr(0, 10);
    EXPECT_FALSE(DurableStateStore::decodeEntry(truncated).ok());
}

TEST(DurabilityCodec, SnapshotEnvelopeRoundTrips)
{
    OnlineSnapshotEnvelope env;
    env.completed = true;
    env.traceBytes = 123456;
    env.traceSeq = 789;
    env.state = std::string("opaque state bytes\0with nul", 27);
    auto decoded = decodeSnapshotEnvelope(encodeSnapshotEnvelope(env));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded.value().completed);
    EXPECT_EQ(decoded.value().traceBytes, env.traceBytes);
    EXPECT_EQ(decoded.value().traceSeq, env.traceSeq);
    EXPECT_EQ(decoded.value().state, env.state);
}

TEST(DurabilityCodec, SnapshotEnvelopeRejectsBadFlagAndTruncation)
{
    ByteWriter w;
    w.putU32(2); // completed must be 0 or 1
    w.putU64(0);
    w.putU64(0);
    w.putString("");
    auto badFlag = decodeSnapshotEnvelope(w.bytes());
    ASSERT_FALSE(badFlag.ok());
    EXPECT_EQ(badFlag.status().kind(), ErrorKind::SemanticError);

    const std::string good =
        encodeSnapshotEnvelope(OnlineSnapshotEnvelope{false, 1, 2, "s"});
    EXPECT_FALSE(decodeSnapshotEnvelope(good.substr(0, 8)).ok());
    EXPECT_FALSE(decodeSnapshotEnvelope(good + "x").ok());
}

// --- journal ---------------------------------------------------------

TEST(DurabilityJournal, AppendScanRoundTrip)
{
    const fs::path dir = freshDir();
    const std::string path = (dir / "journal.amjl").string();
    PlainIo ctx;
    auto journal = Journal::create(path, ctx.io);
    ASSERT_TRUE(journal.ok()) << journal.status().toString();
    Journal j = journal.take();
    const std::vector<std::string> payloads{"alpha", "beta",
                                            std::string(1000, 'z')};
    for (const auto &p : payloads)
        ASSERT_TRUE(j.append(p, ctx.io).isOk());

    const JournalScan scan = Journal::scan(path);
    EXPECT_TRUE(scan.usable);
    EXPECT_FALSE(scan.tornTail);
    EXPECT_TRUE(scan.notes.empty());
    ASSERT_EQ(scan.records.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i)
        EXPECT_EQ(scan.records[i].payload, payloads[i]);
    EXPECT_EQ(scan.validBytes, j.sizeBytes());
}

TEST(DurabilityJournal, MissingFileScansEmptyAndNonUsable)
{
    const fs::path dir = freshDir();
    const JournalScan scan =
        Journal::scan((dir / "no_such.amjl").string());
    EXPECT_FALSE(scan.usable);
    EXPECT_FALSE(scan.tornTail);
    EXPECT_TRUE(scan.records.empty());
    EXPECT_TRUE(scan.notes.empty()); // fresh start, not an anomaly
}

TEST(DurabilityJournal, TornTailIsDetectedAndResumable)
{
    const fs::path dir = freshDir();
    const std::string path = (dir / "journal.amjl").string();
    PlainIo ctx;
    {
        auto journal = Journal::create(path, ctx.io);
        ASSERT_TRUE(journal.ok());
        Journal j = journal.take();
        ASSERT_TRUE(j.append("first", ctx.io).isOk());
        ASSERT_TRUE(j.append("second", ctx.io).isOk());
    }
    // A crash mid-append: a record header claiming 100 payload bytes
    // with only a handful present.
    const std::string intact = readBytes(path);
    ByteWriter torn;
    torn.putU32(100);
    torn.putU32(0);
    writeBytes(path, intact + torn.bytes() + "shortfall");

    const JournalScan scan = Journal::scan(path);
    EXPECT_TRUE(scan.usable);
    EXPECT_TRUE(scan.tornTail);
    EXPECT_FALSE(scan.notes.empty());
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.validBytes, intact.size());

    // Resume truncates the tail; appends continue from the prefix.
    auto resumed = Journal::openResume(path, scan.validBytes, ctx.io);
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    Journal j = resumed.take();
    ASSERT_TRUE(j.append("third", ctx.io).isOk());
    const JournalScan rescanned = Journal::scan(path);
    EXPECT_FALSE(rescanned.tornTail);
    ASSERT_EQ(rescanned.records.size(), 3u);
    EXPECT_EQ(rescanned.records[2].payload, "third");
}

TEST(DurabilityJournal, BitFlipEndsTheValidPrefix)
{
    const fs::path dir = freshDir();
    const std::string path = (dir / "journal.amjl").string();
    PlainIo ctx;
    {
        auto journal = Journal::create(path, ctx.io);
        ASSERT_TRUE(journal.ok());
        Journal j = journal.take();
        ASSERT_TRUE(j.append("stays-valid", ctx.io).isOk());
        ASSERT_TRUE(j.append("gets-corrupted", ctx.io).isOk());
    }
    std::string bytes = readBytes(path);
    bytes[bytes.size() - 3] =
        static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
    writeBytes(path, bytes);

    const JournalScan scan = Journal::scan(path);
    EXPECT_TRUE(scan.usable);
    EXPECT_TRUE(scan.tornTail);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].payload, "stays-valid");
}

TEST(DurabilityJournal, BadHeaderMeansNonUsableWithNotes)
{
    const fs::path dir = freshDir();
    const std::string path = (dir / "journal.amjl").string();

    writeBytes(path, "");
    EXPECT_FALSE(Journal::scan(path).usable);
    EXPECT_FALSE(Journal::scan(path).notes.empty());

    ByteWriter badMagic;
    badMagic.putU32(0x4C4E524Au); // "JRNL"
    badMagic.putU32(Journal::kVersion);
    writeBytes(path, badMagic.bytes());
    EXPECT_FALSE(Journal::scan(path).usable);

    ByteWriter skew;
    skew.putU32(0x4C4A4D41u); // "AMJL"
    skew.putU32(Journal::kVersion + 41);
    writeBytes(path, skew.bytes());
    EXPECT_FALSE(Journal::scan(path).usable);
}

// --- snapshots -------------------------------------------------------

TEST(DurabilitySnapshot, WriteLoadRoundTrip)
{
    const fs::path dir = freshDir();
    PlainIo ctx;
    SnapshotStore store(dir.string(), 2);
    const std::string payload(4096, '\x5a');
    ASSERT_TRUE(store.write(8, payload, ctx.io).isOk());
    EXPECT_TRUE(fs::exists(store.pathFor(8)));

    const SnapshotLoad load = store.loadLatest();
    ASSERT_TRUE(load.snapshot.has_value());
    EXPECT_EQ(load.snapshot->epoch, 8u);
    EXPECT_EQ(load.snapshot->payload, payload);
    EXPECT_TRUE(load.rejected.empty());
}

TEST(DurabilitySnapshot, PrunesBeyondTheKeepCountAndStaleTmp)
{
    const fs::path dir = freshDir();
    PlainIo ctx;
    SnapshotStore store(dir.string(), 2);
    writeBytes(dir / "snapshot-00000099.amss.tmp", "crash residue");
    ASSERT_TRUE(store.write(4, std::string("gen four"), ctx.io).isOk());
    ASSERT_TRUE(store.write(8, std::string("gen eight"), ctx.io).isOk());
    ASSERT_TRUE(store.write(12, std::string("gen twelve"), ctx.io).isOk());

    EXPECT_FALSE(fs::exists(store.pathFor(4)));
    EXPECT_TRUE(fs::exists(store.pathFor(8)));
    EXPECT_TRUE(fs::exists(store.pathFor(12)));
    EXPECT_FALSE(fs::exists(dir / "snapshot-00000099.amss.tmp"));
    const SnapshotLoad load = store.loadLatest();
    ASSERT_TRUE(load.snapshot.has_value());
    EXPECT_EQ(load.snapshot->epoch, 12u);
}

TEST(DurabilitySnapshot, CorruptNewestFallsBackToThePreviousGeneration)
{
    const fs::path dir = freshDir();
    PlainIo ctx;
    SnapshotStore store(dir.string(), 2);
    ASSERT_TRUE(
        store.write(4, std::string("good older state"), ctx.io).isOk());
    ASSERT_TRUE(
        store.write(8, std::string("rotten newer state"), ctx.io).isOk());

    std::string bytes = readBytes(store.pathFor(8));
    bytes[bytes.size() - 1] =
        static_cast<char>(bytes[bytes.size() - 1] ^ 0x01);
    writeBytes(store.pathFor(8), bytes);

    const SnapshotLoad load = store.loadLatest();
    ASSERT_TRUE(load.snapshot.has_value());
    EXPECT_EQ(load.snapshot->epoch, 4u);
    EXPECT_EQ(load.snapshot->payload, "good older state");
    ASSERT_EQ(load.rejected.size(), 1u);
    EXPECT_NE(load.rejected[0].find("snapshot-00000008"),
              std::string::npos);
}

/** @p bytes as a payload handed over in pieces of the sizes in
 *  @p cuts, then the rest in one last piece. */
SnapshotPayload
inPieces(const std::string &bytes, const std::vector<std::size_t> &cuts)
{
    return SnapshotPayload(
        bytes.size(), crc32(bytes), [bytes, cuts](const PayloadSink &sink) {
            std::size_t at = 0;
            for (const std::size_t n : cuts) {
                sink(std::string_view(bytes).substr(at, n));
                at += n;
            }
            sink(std::string_view(bytes).substr(at));
        });
}

/** 1001 bytes that differ from their neighbours. */
std::string
patternedPayload()
{
    std::string bytes(1001, '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 7 + 3);
    return bytes;
}

TEST(DurabilitySnapshot, StreamedPiecesWriteTheOnePieceFile)
{
    const fs::path dir = freshDir();
    PlainIo ctx;
    const std::string payload = patternedPayload();
    SnapshotStore whole((dir / "whole").string(), 2);
    SnapshotStore pieces((dir / "pieces").string(), 2);
    fs::create_directories(dir / "whole");
    fs::create_directories(dir / "pieces");
    ASSERT_TRUE(whole.write(3, payload, ctx.io).isOk());
    ASSERT_TRUE(
        pieces.write(3, inPieces(payload, {0, 1, 499, 0, 7, 300}), ctx.io)
            .isOk());
    EXPECT_EQ(readBytes(pieces.pathFor(3)), readBytes(whole.pathFor(3)));
}

TEST(DurabilitySnapshot, EmittedBytesMustMatchTheDeclaredSize)
{
    const fs::path dir = freshDir();
    PlainIo ctx;
    SnapshotStore store(dir.string(), 2);
    const std::string payload = patternedPayload();
    for (const std::uint64_t declared :
         {payload.size() - 1, payload.size() + 1}) {
        SCOPED_TRACE(declared);
        const SnapshotPayload lying(
            declared, crc32(payload),
            [&](const PayloadSink &sink) { sink(payload); });
        const Status st = store.write(5, lying, ctx.io);
        ASSERT_FALSE(st.isOk());
        EXPECT_NE(st.message().find("declared"), std::string::npos)
            << st.toString();
        EXPECT_FALSE(fs::exists(store.pathFor(5)));
    }
}

TEST(DurabilitySnapshot, TornWriteStopsAtHalfThePayloadWhateverItsPieces)
{
    // The snapshot.mid_write crash leaves the header and exactly
    // floor(size / 2) payload bytes in the tmp file, wherever the
    // emitter's pieces happen to be cut.
    const std::string payload = patternedPayload();
    const std::vector<std::vector<std::size_t>> cutsList = {
        {}, {500}, {499, 2}, {0, 0, 1000}, {1, 1, 1, 1}};
    for (const auto &cuts : cutsList) {
        SCOPED_TRACE(::testing::PrintToString(cuts));
        const fs::path dir = freshDir();
        EXPECT_EXIT(
            {
                PlainIo ctx;
                SnapshotStore store(dir.string(), 2);
                (void)armKillPoint("snapshot.mid_write");
                (void)store.write(3, inPieces(payload, cuts), ctx.io);
                std::_Exit(0);
            },
            ::testing::ExitedWithCode(kKillExitCode), "");
        const std::string torn =
            readBytes(dir / "snapshot-00000003.amss.tmp");
        const std::size_t header = 28;
        ASSERT_EQ(torn.size(), header + payload.size() / 2);
        EXPECT_EQ(torn.substr(header), payload.substr(0, payload.size() / 2));
        EXPECT_FALSE(fs::exists(dir / "snapshot-00000003.amss"));
    }
}

TEST(DurabilitySnapshot, EpochNamePastU64NamesNoSnapshot)
{
    // 18446744073709551624 is 2^64 + 8: a name that wrapped would load
    // this valid epoch-8 snapshot as epoch 8.
    const fs::path dir = freshDir();
    PlainIo ctx;
    SnapshotStore store(dir.string(), 2);
    ASSERT_TRUE(store.write(8, SnapshotPayload("eight"), ctx.io).isOk());
    fs::rename(store.pathFor(8), dir / "snapshot-18446744073709551624.amss");
    const SnapshotLoad load = store.loadLatest();
    EXPECT_FALSE(load.snapshot.has_value());
    EXPECT_TRUE(load.rejected.empty());
}

// --- segment ---------------------------------------------------------

/** The first @p size bytes of @p bytes as the records a snapshot
 *  names, handed over from any byte in pieces of at most 7. */
SegmentRecords
recordsOf(const std::string &bytes, std::size_t size)
{
    return {size, [bytes, size](std::uint64_t from, const PayloadSink &sink) {
                for (std::size_t at = from; at < size; at += 7)
                    sink(std::string_view(bytes).substr(
                        at, std::min<std::size_t>(7, size - at)));
            }};
}

TEST(DurabilitySegment, AppendsGrowTheRecordsAScanReads)
{
    const fs::path dir = freshDir();
    const std::string path = (dir / "jobs.amsg").string();
    PlainIo ctx;
    const std::string bytes = patternedPayload();
    auto created = AppendFile::create(path, kSegmentFormat, ctx.io);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    AppendFile segment = created.take();
    EXPECT_EQ(readBytes(path).size(), AppendFile::kHeaderBytes);
    for (const std::size_t size : {0, 300, 300, 1001}) {
        const SegmentRecords records = recordsOf(bytes, size);
        ASSERT_TRUE(
            segment.append(records.size, records.emit, ctx.io).isOk());
        const FileScan scan = AppendFile::scan(path, kSegmentFormat);
        EXPECT_TRUE(scan.notes.empty());
        EXPECT_EQ(scan.body, bytes.substr(0, size));
    }
    // The durable end never moves back, and an emitter must hand over
    // exactly the bytes it names.
    const Status shrink =
        segment.append(10, recordsOf(bytes, 10).emit, ctx.io);
    EXPECT_EQ(shrink.kind(), ErrorKind::SemanticError);
    const Status lying = segment.append(
        1100, [&](std::uint64_t, const PayloadSink &sink) { sink("x"); },
        ctx.io);
    EXPECT_EQ(lying.kind(), ErrorKind::SemanticError);
    EXPECT_NE(lying.message().find("declared"), std::string::npos);
}

TEST(DurabilitySegment, MissingOrBadHeaderScansEmpty)
{
    const fs::path dir = freshDir();
    const FileScan missing =
        AppendFile::scan((dir / "none").string(), kSegmentFormat);
    EXPECT_TRUE(missing.body.empty());
    EXPECT_TRUE(missing.notes.empty());

    ByteWriter skew;
    skew.putU32(0x47534d41u); // "AMSG"
    skew.putU32(kSegmentFormat.version + 1);
    for (const std::string &bytes :
         {std::string(), std::string("AMS"), std::string("JUNKJUNKrecords"),
          skew.take() + "records"}) {
        SCOPED_TRACE(bytes);
        writeBytes(dir / "jobs.amsg", bytes);
        const FileScan scan =
            AppendFile::scan((dir / "jobs.amsg").string(), kSegmentFormat);
        EXPECT_TRUE(scan.body.empty());
        EXPECT_EQ(scan.notes.size(), 1u);
    }
}

TEST(DurabilitySegment, TornAppendStopsAtHalfTheNewRecords)
{
    // The segment.mid_append crash leaves the durable records and
    // floor(n / 2) of the n new ones; segment.pre_sync leaves them
    // all. Both fire on an append of nothing too, so every snapshot
    // commit reaches them.
    const std::string bytes = patternedPayload();
    struct Case
    {
        const char *site;
        std::size_t size;
        std::size_t left;
    };
    for (const Case &c : {Case{"segment.mid_append", 1001, 300 + 350},
                          Case{"segment.mid_append", 300, 300},
                          Case{"segment.pre_sync", 1001, 1001},
                          Case{"segment.pre_sync", 300, 300}}) {
        SCOPED_TRACE(std::string(c.site) + " to " + std::to_string(c.size));
        const fs::path dir = freshDir();
        const std::string path = (dir / "jobs.amsg").string();
        EXPECT_EXIT(
            {
                PlainIo ctx;
                AppendFile segment =
                    AppendFile::create(path, kSegmentFormat, ctx.io).take();
                (void)segment.append(300, recordsOf(bytes, 300).emit,
                                     ctx.io);
                (void)armKillPoint(c.site);
                (void)segment.append(c.size, recordsOf(bytes, c.size).emit,
                                     ctx.io);
                std::_Exit(0);
            },
            ::testing::ExitedWithCode(kKillExitCode), "");
        EXPECT_EQ(AppendFile::scan(path, kSegmentFormat).body,
                  bytes.substr(0, c.left));
    }
}

// --- kill points -----------------------------------------------------

TEST(DurabilityKillPoints, OccurrencePastU64IsRefused)
{
    // 2^64 + 1 wrapped would arm occurrence 1. Only refused specs are
    // tried here: an accepted one would stay armed in this process.
    for (const char *spec : {"journal.post_append:18446744073709551617",
                             "journal.post_append:18446744073709551616",
                             "journal.post_append:0",
                             "journal.post_append:-1",
                             "journal.post_append:"}) {
        SCOPED_TRACE(spec);
        const Status st = armKillPoint(spec);
        EXPECT_EQ(st.kind(), ErrorKind::DomainError);
        EXPECT_NE(st.message().find("is not a positive integer"),
                  std::string::npos);
    }
}

// --- IO fault injection ----------------------------------------------

TEST(DurabilityIoFaults, RealizationIsAPureFunctionOfTheSeed)
{
    IoFaultOptions opts;
    opts.failureRate = 0.4;
    const IoFaultInjector a(opts);
    const IoFaultInjector b(opts);
    int faults = 0;
    for (std::uint64_t op = 0; op < 64; ++op) {
        for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
            EXPECT_EQ(a.injectFailure(op, attempt),
                      b.injectFailure(op, attempt));
            faults += a.injectFailure(op, attempt) ? 1 : 0;
        }
    }
    EXPECT_GT(faults, 0);

    IoFaultOptions reseeded = opts;
    reseeded.seed ^= 0x9E3779B97F4A7C15ull;
    const IoFaultInjector c(reseeded);
    bool differs = false;
    for (std::uint64_t op = 0; op < 64 && !differs; ++op)
        differs = a.injectFailure(op, 0) != c.injectFailure(op, 0);
    EXPECT_TRUE(differs);
}

TEST(DurabilityIoFaults, DisabledOrZeroRateNeverFails)
{
    // The default rate, 0, is the off switch, whatever the seed.
    IoFaultOptions off;
    const IoFaultInjector disabled(off);
    IoFaultOptions zero;
    zero.seed ^= 0x9E3779B97F4A7C15ull;
    zero.failureRate = 0.0;
    const IoFaultInjector zeroRate(zero);
    for (std::uint64_t op = 0; op < 32; ++op) {
        EXPECT_FALSE(disabled.injectFailure(op, 0));
        EXPECT_FALSE(zeroRate.injectFailure(op, 0));
    }
}

TEST(DurabilityIoFaults, OptionValidationRejectsBadKnobs)
{
    IoFaultOptions rate;
    rate.failureRate = 1.0; // must stay below certain failure
    EXPECT_EQ(validateIoFaultOptions(rate).kind(),
              ErrorKind::DomainError);
    IoFaultOptions retries;
    retries.maxRetries = 0;
    EXPECT_EQ(validateIoFaultOptions(retries).kind(),
              ErrorKind::DomainError);
}

// --- DurableStateStore protocol --------------------------------------

DurabilityOptions
storeOptions(const fs::path &dir, int snapshotEvery)
{
    DurabilityOptions opts;
    opts.stateDir = dir.string();
    opts.snapshotEvery = snapshotEvery;
    return opts;
}

/**
 * Commit epochs @p first..@p last with synthetic digests and payloads;
 * epoch e names the first 10·e bytes of @p segment when one is given.
 */
void
commitEpochs(DurableStateStore &store, int last, int first = 1,
             const std::string *segment = nullptr)
{
    for (int e = first; e <= last; ++e) {
        const JournalEntry entry{
            static_cast<std::uint64_t>(e),
            crc32("state " + std::to_string(e)),
            static_cast<std::uint64_t>(100 * e),
            static_cast<std::uint64_t>(e)};
        ASSERT_TRUE(store
                        .commitEpoch(
                            entry,
                            [e] {
                                return "payload for epoch " +
                                       std::to_string(e);
                            },
                            segment ? recordsOf(*segment,
                                                static_cast<std::size_t>(
                                                    10 * e))
                                    : SegmentRecords{})
                        .isOk())
            << "epoch " << e;
    }
}

TEST(DurableStore, RejectsInvalidOptions)
{
    EXPECT_FALSE(DurableStateStore::open(DurabilityOptions{}).ok());
    DurabilityOptions opts = storeOptions(freshDir(), -1);
    auto bad = DurableStateStore::open(opts);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().kind(), ErrorKind::DomainError);
}

TEST(DurableStore, CommitRecoverRoundTripOnTheSnapshotCadence)
{
    const fs::path dir = freshDir();
    auto opened = DurableStateStore::open(storeOptions(dir, 3));
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    DurableStateStore store = opened.take();
    ASSERT_TRUE(store.beginFresh().isOk());
    commitEpochs(store, 7); // snapshots at 3 and 6; 7 journaled

    const RecoveredState rec = store.recover();
    EXPECT_TRUE(rec.hasSnapshot);
    EXPECT_EQ(rec.snapshotEpoch, 6u);
    EXPECT_EQ(rec.snapshotPayload, "payload for epoch 6");
    ASSERT_EQ(rec.entries.size(), 1u);
    EXPECT_EQ(rec.entries[0].epoch, 7u);
    EXPECT_EQ(rec.entries[0].traceBytes, 700u);
    EXPECT_EQ(rec.frontierEpoch(), 7u);
    EXPECT_TRUE(rec.journalUsable);
    EXPECT_FALSE(rec.tornTail);
    EXPECT_EQ(store.counters().journalAppends, 7u);
    EXPECT_EQ(store.counters().snapshotsWritten, 2u);
}

TEST(DurableStore, FileHeadersArePinned)
{
    // Every durable file starts with its magic and a u32 version, all
    // written by one header helper: these bytes are a format.
    const fs::path dir = freshDir();
    auto opened = DurableStateStore::open(storeOptions(dir, 2));
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    DurableStateStore store = opened.take();
    ASSERT_TRUE(store.beginFresh().isOk());
    const std::string records = patternedPayload();
    commitEpochs(store, 5, 1, &records);
    const auto head = [&](const char *name) {
        return readBytes(dir / name).substr(0, 8);
    };
    EXPECT_EQ(head("journal.amjl"), std::string("AMJL\x01\0\0\0", 8));
    EXPECT_EQ(head("jobs.amsg"), std::string("AMSG\x01\0\0\0", 8));
    EXPECT_EQ(head("snapshot-00000004.amss"),
              std::string("AMSS\x01\0\0\0", 8));
}

TEST(DurableStore, OversizedSnapshotIsRefusedBeforeAnyFile)
{
    // decodeFile rejects a payload above kMaxPayloadBytes, so writing
    // one would leave a newest snapshot that can never load. The
    // writer refuses it up front.
    const fs::path dir = freshDir();
    auto opened = DurableStateStore::open(storeOptions(dir, 2));
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    DurableStateStore store = opened.take();
    ASSERT_TRUE(store.beginFresh().isOk());
    commitEpochs(store, 1);

    const Status st = store.commitEpoch(JournalEntry{2, 0, 200, 2}, [] {
        return SnapshotPayload(SnapshotStore::kMaxPayloadBytes + 1, 0,
                               [](const PayloadSink &) {
                                   ADD_FAILURE() << "a refused payload "
                                                    "was emitted";
                               });
    });
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.kind(), ErrorKind::DomainError);
    for (const auto &entry : fs::directory_iterator(dir))
        EXPECT_FALSE(entry.path().filename().string().starts_with(
            "snapshot-"))
            << entry.path();
    EXPECT_EQ(store.counters().snapshotsWritten, 0u);
    const RecoveredState rec = store.recover();
    EXPECT_FALSE(rec.hasSnapshot);
    ASSERT_EQ(rec.entries.size(), 2u);
    EXPECT_EQ(rec.entries.back().epoch, 2u);
}

TEST(DurableStore, BeginFreshDiscardsOwnedArtifactsOnly)
{
    const fs::path dir = freshDir();
    writeBytes(dir / "unrelated.txt", "not ours");
    writeBytes(dir / "jobs.amsg", "a stale segment of another run");
    auto opened = DurableStateStore::open(storeOptions(dir, 2));
    ASSERT_TRUE(opened.ok());
    DurableStateStore store = opened.take();
    ASSERT_TRUE(store.beginFresh().isOk());
    EXPECT_EQ(readBytes(dir / "jobs.amsg").size(), AppendFile::kHeaderBytes);
    const std::string records = patternedPayload();
    commitEpochs(store, 4, 1, &records);
    ASSERT_TRUE(store.recover().hasSnapshot);
    ASSERT_EQ(store.recover().segment, records.substr(0, 40));

    ASSERT_TRUE(store.beginFresh().isOk());
    const RecoveredState rec = store.recover();
    EXPECT_FALSE(rec.hasSnapshot);
    EXPECT_TRUE(rec.entries.empty());
    EXPECT_TRUE(rec.segment.empty());
    EXPECT_TRUE(rec.notes.empty());
    EXPECT_TRUE(fs::exists(dir / "unrelated.txt"));
}

TEST(DurableStore, SegmentGrowsOnlyOnSnapshotEpochs)
{
    const fs::path dir = freshDir();
    auto opened = DurableStateStore::open(storeOptions(dir, 3));
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    DurableStateStore store = opened.take();
    EXPECT_FALSE(fs::exists(store.segmentPath())); // open() creates none
    ASSERT_TRUE(store.beginFresh().isOk());
    const std::string records = patternedPayload();
    // Epoch e names 10·e bytes, but only snapshot epochs (3 and 6)
    // write them.
    const std::size_t durable[] = {0, 0, 30, 30, 30, 60, 60};
    for (int e = 1; e <= 7; ++e) {
        commitEpochs(store, e, e, &records);
        EXPECT_EQ(readBytes(store.segmentPath()).size(),
                  AppendFile::kHeaderBytes + durable[e - 1])
            << "epoch " << e;
    }
    const RecoveredState rec = store.recover();
    EXPECT_EQ(rec.snapshotEpoch, 6u);
    EXPECT_EQ(rec.segment, records.substr(0, 60));
    // A commit without records leaves the segment alone.
    commitEpochs(store, 9, 8);
    EXPECT_EQ(store.recover().segment, records.substr(0, 60));
}

TEST(DurableStore, ResumeCutsTheSegmentToTheBytesItNames)
{
    const fs::path dir = freshDir();
    const std::string records = patternedPayload();
    {
        auto opened = DurableStateStore::open(storeOptions(dir, 3));
        ASSERT_TRUE(opened.ok());
        DurableStateStore store = opened.take();
        ASSERT_TRUE(store.beginFresh().isOk());
        commitEpochs(store, 7, 1, &records);
    }
    // A torn append past what the snapshot names.
    {
        std::ofstream out(dir / "jobs.amsg",
                          std::ios::binary | std::ios::app);
        out << "torn tail";
    }
    auto opened = DurableStateStore::open(storeOptions(dir, 3));
    ASSERT_TRUE(opened.ok());
    DurableStateStore store = opened.take();
    const RecoveredState rec = store.recover();
    ASSERT_EQ(rec.segment, records.substr(0, 60) + "torn tail");

    const Status past = store.beginResume(rec, rec.segment.size() + 1);
    EXPECT_EQ(past.kind(), ErrorKind::SemanticError);
    ASSERT_TRUE(store.beginResume(rec, 60).isOk());
    EXPECT_EQ(store.recover().segment, records.substr(0, 60));
    // Appends go on from the cut, so the bytes match a run never torn.
    commitEpochs(store, 9, 8, &records);
    EXPECT_EQ(store.recover().segment, records.substr(0, 90));
}

TEST(DurableStore, BadSegmentHeaderIsNotedAndNamesNoRecords)
{
    const fs::path dir = freshDir();
    writeBytes(dir / "jobs.amsg", "JUNKJUNK" + patternedPayload());
    auto opened = DurableStateStore::open(storeOptions(dir, 3));
    ASSERT_TRUE(opened.ok());
    DurableStateStore store = opened.take();
    const RecoveredState rec = store.recover();
    EXPECT_TRUE(rec.segment.empty());
    const bool noted = std::any_of(
        rec.notes.begin(), rec.notes.end(), [](const std::string &n) {
            return n.starts_with("segment: ");
        });
    EXPECT_TRUE(noted);
    // Resuming from what names no record starts the segment afresh.
    EXPECT_EQ(store.beginResume(rec, 1).kind(), ErrorKind::SemanticError);
    ASSERT_TRUE(store.beginResume(rec, 0).isOk());
    const FileScan scan =
        AppendFile::scan(store.segmentPath(), kSegmentFormat);
    EXPECT_TRUE(scan.notes.empty());
    EXPECT_TRUE(scan.body.empty());
    EXPECT_EQ(readBytes(store.segmentPath()).size(), AppendFile::kHeaderBytes);
}

TEST(DurableStore, JournalKeepsEveryEpochAcrossSnapshots)
{
    // A snapshot only shortens the replay: the journal keeps its
    // header and one 36-byte record (8-byte frame + 28-byte entry) per
    // committed epoch, through every snapshot and the final one.
    const fs::path dir = freshDir();
    auto opened = DurableStateStore::open(storeOptions(dir, 3));
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    DurableStateStore store = opened.take();
    ASSERT_TRUE(store.beginFresh().isOk());
    constexpr std::uint64_t kEpochs = 10; // snapshots at 3, 6 and 9
    commitEpochs(store, static_cast<int>(kEpochs));
    ASSERT_TRUE(store
                    .finishRun(kEpochs,
                               [] { return std::string("final"); })
                    .isOk());
    EXPECT_EQ(store.counters().snapshotsWritten, 4u);

    EXPECT_EQ(readBytes(store.journalPath()).size(),
              Journal::kHeaderBytes + 36 * kEpochs);
    const JournalScan scan = Journal::scan(store.journalPath());
    EXPECT_FALSE(scan.tornTail);
    ASSERT_EQ(scan.records.size(), kEpochs);
    for (std::uint64_t e = 1; e <= kEpochs; ++e) {
        auto entry =
            DurableStateStore::decodeEntry(scan.records[e - 1].payload);
        ASSERT_TRUE(entry.ok()) << entry.status().toString();
        EXPECT_EQ(entry.value().epoch, e);
    }
}

TEST(DurableStore, RecoverSkipsRecordsAtOrBeforeTheSnapshot)
{
    // The journal holds every epoch; those the snapshot already holds
    // are history, skipped without a note and without a torn tail.
    const fs::path dir = freshDir();
    {
        auto opened = DurableStateStore::open(storeOptions(dir, 4));
        ASSERT_TRUE(opened.ok()) << opened.status().toString();
        DurableStateStore store = opened.take();
        ASSERT_TRUE(store.beginFresh().isOk());
        commitEpochs(store, 6); // snapshot at 4; 1..6 journaled
    }
    auto opened = DurableStateStore::open(storeOptions(dir, 4));
    ASSERT_TRUE(opened.ok());
    DurableStateStore store = opened.take();
    const RecoveredState rec = store.recover();
    EXPECT_EQ(rec.snapshotEpoch, 4u);
    ASSERT_EQ(rec.entries.size(), 2u);
    EXPECT_EQ(rec.entries[0].epoch, 5u);
    EXPECT_EQ(rec.entries[1].epoch, 6u);
    EXPECT_FALSE(rec.tornTail);
    EXPECT_TRUE(rec.notes.empty());
    // The skipped records stay in the valid prefix: a resume keeps
    // them.
    EXPECT_EQ(rec.journalValidBytes, Journal::kHeaderBytes + 36 * 6);
    ASSERT_TRUE(store.beginResume(rec, 0).isOk());
    EXPECT_EQ(Journal::scan(store.journalPath()).records.size(), 6u);
}

TEST(DurableStore, ContiguityBreakEndsTheUsablePrefix)
{
    const fs::path dir = freshDir();
    PlainIo ctx;
    auto journal =
        Journal::create((dir / "journal.amjl").string(), ctx.io);
    ASSERT_TRUE(journal.ok());
    Journal j = journal.take();
    for (std::uint64_t e : {1u, 2u, 4u, 5u}) // gap at 3
        ASSERT_TRUE(j.append(DurableStateStore::encodeEntry(
                                 JournalEntry{e, 0, 0, 0}),
                             ctx.io)
                        .isOk());

    auto opened = DurableStateStore::open(storeOptions(dir, 8));
    ASSERT_TRUE(opened.ok());
    const RecoveredState rec = opened.value().recover();
    ASSERT_EQ(rec.entries.size(), 2u);
    EXPECT_EQ(rec.entries.back().epoch, 2u);
    EXPECT_TRUE(rec.tornTail);
    const bool noted = std::any_of(
        rec.notes.begin(), rec.notes.end(), [](const std::string &n) {
            return n.find("breaks contiguity") != std::string::npos;
        });
    EXPECT_TRUE(noted);

    // beginResume truncates the journal at the break; a rescan after
    // resume sees only the contiguous prefix.
    DurableStateStore store = opened.take();
    ASSERT_TRUE(store.beginResume(rec, 0).isOk());
    const JournalScan scan =
        Journal::scan((dir / "journal.amjl").string());
    EXPECT_EQ(scan.records.size(), 2u);
}

TEST(DurableStore, TransientFaultsAreRetriedToSuccess)
{
    const fs::path dir = freshDir();
    DurabilityOptions opts = storeOptions(dir, 2);
    opts.ioFaults.failureRate = 0.3;
    opts.ioFaults.maxRetries = 8;
    auto opened = DurableStateStore::open(opts);
    ASSERT_TRUE(opened.ok());
    DurableStateStore store = opened.take();
    ASSERT_TRUE(store.beginFresh().isOk());
    commitEpochs(store, 8);

    EXPECT_GT(store.counters().injectedFaults, 0u);
    EXPECT_GE(store.counters().ioRetries,
              store.counters().injectedFaults);
    // Same data durable despite the faults.
    const RecoveredState rec = store.recover();
    EXPECT_EQ(rec.frontierEpoch(), 8u);
}

TEST(DurableStore, ExhaustedRetriesSurfaceAnIoError)
{
    const fs::path dir = freshDir();
    DurabilityOptions opts = storeOptions(dir, 2);
    opts.ioFaults.failureRate = 0.999999;
    opts.ioFaults.maxRetries = 2;
    auto opened = DurableStateStore::open(opts);
    ASSERT_TRUE(opened.ok());
    DurableStateStore store = opened.take();
    const Status st = store.beginFresh();
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.kind(), ErrorKind::IoError);
}

// --- corruption corpus -----------------------------------------------

fs::path
corpusDir()
{
    return fs::path(AMDAHL_TEST_DATA_DIR) / "malformed" / "durability";
}

std::vector<fs::path>
corpusFiles(const std::string &extension)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(corpusDir()))
        if (entry.path().extension() == extension)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(DurabilityCorpus, CorpusIsPresent)
{
    ASSERT_TRUE(fs::exists(corpusDir()))
        << "missing corpus dir " << corpusDir();
    EXPECT_GE(corpusFiles(".amjl").size(), 6u);
    EXPECT_GE(corpusFiles(".amss").size(), 5u);
}

TEST(DurabilityCorpus, EveryMalformedJournalIsDetectedOnRecovery)
{
    for (const auto &path : corpusFiles(".amjl")) {
        SCOPED_TRACE(path.filename().string());
        const fs::path dir = freshDir() / path.stem();
        fs::create_directories(dir);
        fs::copy_file(path, dir / "journal.amjl");

        auto opened = DurableStateStore::open(storeOptions(dir, 8));
        ASSERT_TRUE(opened.ok());
        const RecoveredState rec = opened.value().recover();
        // Detected: either the file is unusable, or the corruption
        // ended the valid prefix — and in every case a note says why.
        EXPECT_TRUE(!rec.journalUsable || rec.tornTail);
        EXPECT_FALSE(rec.notes.empty());
        // Never applied: nothing corrupt ever reaches entries.
        for (const JournalEntry &entry : rec.entries)
            EXPECT_GT(entry.epoch, 0u);
        // And the store still resumes — recovery is never a dead end.
        DurableStateStore store = opened.take();
        EXPECT_TRUE(store.beginResume(rec, 0).isOk());
    }
}

TEST(DurabilityCorpus, EveryMalformedSnapshotIsRejectedByDecode)
{
    for (const auto &path : corpusFiles(".amss")) {
        SCOPED_TRACE(path.filename().string());
        auto decoded = SnapshotStore::decodeFile(path.string());
        ASSERT_FALSE(decoded.ok())
            << "malformed snapshot accepted: " << path;
        EXPECT_FALSE(decoded.status().message().empty());
    }
}

TEST(DurabilityCorpus, MalformedSnapshotInPlaceFallsBackToLastGood)
{
    PlainIo ctx;
    for (const auto &path : corpusFiles(".amss")) {
        SCOPED_TRACE(path.filename().string());
        const fs::path dir = freshDir() / path.stem();
        fs::create_directories(dir);
        SnapshotStore store(dir.string(), 3);
        ASSERT_TRUE(
            store.write(2, std::string("last good"), ctx.io).isOk());
        // The corrupt file masquerades as a newer generation.
        fs::copy_file(path, dir / "snapshot-00000009.amss");

        const SnapshotLoad load = store.loadLatest();
        ASSERT_TRUE(load.snapshot.has_value());
        EXPECT_EQ(load.snapshot->epoch, 2u);
        EXPECT_EQ(load.snapshot->payload, "last good");
        EXPECT_FALSE(load.rejected.empty());
    }
}

} // namespace
} // namespace amdahl::durability
