/**
 * @file
 * The shared byte codec (common/bytes.hh): pinned bytes and bulk
 * vector paths.
 *
 * Snapshots, journal records and network frames are all written by
 * ByteWriter, so its bytes for a value sequence are a format, not an
 * implementation detail. The pin below was recorded from a build of
 * the byte-at-a-time writer this codec replaced; a writer change that
 * moves any byte fails it. Field-level round trips and underrun
 * handling are covered by the DurabilityCodec suite.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "common/crc32.hh"

namespace amdahl {
namespace {

void
writeMixedSequence(ByteWriter &w)
{
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putF64(-1234.5678);
    w.putString(std::string("pinned \0 bytes", 14));
    w.putF64Vector({0.0, -0.0, 0.1, 1e300,
                    std::numeric_limits<double>::denorm_min(),
                    std::numeric_limits<double>::infinity()});
    w.putU32(7);
    w.putU64Vector({0, 1, 1ull << 63,
                    std::numeric_limits<std::uint64_t>::max()});
    w.putF64Vector({});
    w.putString("");
}

TEST(ByteCodec, MixedSequenceMatchesPinnedBytes)
{
    ByteWriter w;
    writeMixedSequence(w);
    // Recorded from a build of the byte-at-a-time writer.
    EXPECT_EQ(w.bytes().size(), 158u);
    EXPECT_EQ(crc32(w.bytes()), 0x11ec7d60u);
}

TEST(ByteCodec, MixedSequenceReadsBackInBulk)
{
    ByteWriter w;
    writeMixedSequence(w);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.readU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.readF64(), -1234.5678);
    EXPECT_EQ(r.readString(), std::string("pinned \0 bytes", 14));
    const std::vector<double> f = r.readF64Vector();
    ASSERT_EQ(f.size(), 6u);
    EXPECT_FALSE(std::signbit(f[0]));
    EXPECT_TRUE(std::signbit(f[1]));
    EXPECT_EQ(f[2], 0.1);
    EXPECT_EQ(f[3], 1e300);
    EXPECT_EQ(f[4], std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(f[5], std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.readU32(), 7u);
    EXPECT_EQ(r.readU64Vector(),
              (std::vector<std::uint64_t>{
                  0, 1, 1ull << 63,
                  std::numeric_limits<std::uint64_t>::max()}));
    EXPECT_TRUE(r.readF64Vector().empty());
    EXPECT_EQ(r.readString(), "");
    r.expectEnd();
    EXPECT_TRUE(r.ok()) << r.status().toString();
}

TEST(ByteCodec, U8AndU32)
{
    ByteWriter w;
    w.putU8(0xA5);
    w.putU32(0x01020304u);
    w.putU8(0x5A);
    EXPECT_EQ(w.bytes(), std::string("\xA5\x04\x03\x02\x01\x5A", 6));
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readU8(), 0xA5);
    EXPECT_EQ(r.readU32(), 0x01020304u);
    EXPECT_EQ(r.readU8(), 0x5A);
    EXPECT_EQ(r.readU8(), 0u); // past the end
    EXPECT_EQ(r.status().kind(), ErrorKind::ParseError);
}

TEST(ByteCodec, ClearedWriterStartsOver)
{
    // clear() drops the staged values too, so a writer reused chunk
    // after chunk writes each chunk as a fresh writer would.
    ByteWriter fresh;
    writeMixedSequence(fresh);

    ByteWriter reused;
    writeMixedSequence(reused);
    (void)reused.bytes();
    reused.putU32(9); // staged, not yet in the buffer
    reused.clear();
    writeMixedSequence(reused);
    EXPECT_EQ(reused.bytes(), fresh.bytes());
}

TEST(ByteCodec, VectorCountBeyondTheBytesIsAParseError)
{
    // A count one element larger than the bytes present: the bulk
    // read must refuse before it sizes or reads anything.
    ByteWriter w;
    w.putU64(3);
    w.putF64(1.0);
    w.putF64(2.0);
    ByteReader f(w.bytes());
    EXPECT_TRUE(f.readF64Vector().empty());
    EXPECT_EQ(f.status().kind(), ErrorKind::ParseError);
    ByteReader u(w.bytes());
    EXPECT_TRUE(u.readU64Vector().empty());
    EXPECT_EQ(u.status().kind(), ErrorKind::ParseError);
}

TEST(ByteCodec, LargeVectorsKeepTheirBytes)
{
    // Past any small-buffer or first-growth size, so the one-resize
    // write and the bulk read cover reallocation.
    std::vector<double> f(5000);
    std::vector<std::uint64_t> u(5000);
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] = static_cast<double>(i) / 7.0 - 300.0;
        u[i] = i * 0x9E3779B97F4A7C15ull;
    }
    ByteWriter w;
    w.putU32(1);
    w.putF64Vector(f);
    w.putU64Vector(u);
    EXPECT_EQ(w.bytes().size(), 4u + 2 * (8 + 8 * 5000));
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readU32(), 1u);
    EXPECT_EQ(r.readF64Vector(), f);
    EXPECT_EQ(r.readU64Vector(), u);
    r.expectEnd();
    EXPECT_TRUE(r.ok()) << r.status().toString();
}

} // namespace
} // namespace amdahl
