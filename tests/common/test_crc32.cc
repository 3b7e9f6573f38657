/**
 * @file
 * CRC-32 contract: the zlib polynomial, at every length and alignment.
 *
 * crc32Update has two paths that must return the same bits. On CPUs
 * with PCLMULQDQ, a call of 64 bytes or more folds four 16-byte
 * accumulators per 64-byte block, then single 16-byte blocks, and
 * hands the 0-15-byte tail to the tables; every other call runs
 * slicing-by-8 tables, eight bytes per step, then a byte at a time.
 * So the cases that matter are one 64-byte block, the 4-way loop,
 * every count of 16-byte folds and every tail length, at every start
 * offset in a 16-byte load. Both crc32Update and the table path
 * (detail::crc32UpdateTables) are checked against a bit-at-a-time
 * reference written here from the polynomial alone, which shares no
 * table or constant with the code under test, and against each other
 * on long random buffers.
 */

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/crc32.hh"

namespace amdahl {
namespace {

/** Reflected CRC-32 (poly 0xEDB88320, init and xorout 0xFFFFFFFF),
 *  one bit per step. */
std::uint32_t
referenceCrc(const unsigned char *p, std::size_t n)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    return c ^ 0xFFFFFFFFu;
}

/** 1 KiB of deterministic, irregular bytes. */
std::array<unsigned char, 1024>
sampleBytes()
{
    std::array<unsigned char, 1024> b{};
    std::uint32_t x = 0x9E3779B9u;
    for (auto &v : b) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        v = static_cast<unsigned char>(x >> 11);
    }
    return b;
}

std::string
le(std::uint64_t v, int bytes)
{
    std::string s;
    for (int i = 0; i < bytes; ++i)
        s.push_back(static_cast<char>(v >> (8 * i)));
    return s;
}

TEST(Crc32, CheckValue)
{
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, EveryLengthAndOffsetMatchesTheBitwiseReference)
{
    const auto bytes = sampleBytes();
    for (std::size_t offset = 0; offset <= 15; ++offset) {
        for (std::size_t len = 0; len <= 600; ++len) {
            const unsigned char *p = bytes.data() + offset;
            const std::uint32_t want = referenceCrc(p, len);
            ASSERT_EQ(crc32Update(0, p, len), want)
                << "offset " << offset << ", length " << len;
            ASSERT_EQ(detail::crc32UpdateTables(0, p, len), want)
                << "tables, offset " << offset << ", length " << len;
        }
    }
}

TEST(Crc32, UpdateChainsAtEverySplitPoint)
{
    const auto bytes = sampleBytes();
    const std::uint32_t whole = crc32Update(0, bytes.data(), bytes.size());
    for (std::size_t k = 0; k <= bytes.size(); ++k) {
        const std::uint32_t head = crc32Update(0, bytes.data(), k);
        EXPECT_EQ(crc32Update(head, bytes.data() + k, bytes.size() - k),
                  whole)
            << "split at " << k;
    }
    // Three pieces, the middle one shorter than a slicing step.
    std::uint32_t c = crc32Update(0, bytes.data(), 13);
    c = crc32Update(c, bytes.data() + 13, 5);
    c = crc32Update(c, bytes.data() + 18, bytes.size() - 18);
    EXPECT_EQ(c, whole);
    // Three pieces, each long enough to fold, none a multiple of 16.
    c = crc32Update(0, bytes.data(), 100);
    c = crc32Update(c, bytes.data() + 100, 333);
    c = crc32Update(c, bytes.data() + 433, bytes.size() - 433);
    EXPECT_EQ(c, whole);
}

TEST(Crc32, TypedFoldsAreTheirLittleEndianBytes)
{
    Crc32 u32;
    u32.updateU32(0xDEADBEEFu);
    EXPECT_EQ(u32.value(), crc32(le(0xDEADBEEFu, 4)));

    Crc32 u64;
    u64.updateU64(0x0123456789ABCDEFull);
    EXPECT_EQ(u64.value(), crc32(le(0x0123456789ABCDEFull, 8)));

    const double x = -1234.5678;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    Crc32 f64;
    f64.updateF64(x);
    EXPECT_EQ(f64.value(), crc32(le(bits, 8)));
    Crc32 negZero;
    negZero.updateF64(-0.0);
    Crc32 posZero;
    posZero.updateF64(0.0);
    EXPECT_NE(negZero.value(), posZero.value());

    Crc32 str;
    str.update(std::string_view("abc"));
    EXPECT_EQ(str.value(), crc32(le(3, 8) + "abc"));

    Crc32 sequence;
    sequence.updateU32(7);
    sequence.updateU64(8);
    sequence.update(std::string_view("x"));
    EXPECT_EQ(sequence.value(),
              crc32(le(7, 4) + le(8, 8) + le(1, 8) + "x"));
}

TEST(Crc32, LengthPrefixSeparatesStringBoundaries)
{
    Crc32 a;
    a.update(std::string_view("ab"));
    a.update(std::string_view("c"));
    Crc32 b;
    b.update(std::string_view("a"));
    b.update(std::string_view("bc"));
    EXPECT_NE(a.value(), b.value());
}

/** @p n seeded pseudo-random bytes (xorshift64). */
std::string
randomBytes(std::size_t n, std::uint64_t seed)
{
    std::string s(n, '\0');
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
    for (auto &c : s) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c = static_cast<char>(x >> 32);
    }
    return s;
}

TEST(Crc32, FoldedAndTablePathsAgreeOnLongRandomBuffers)
{
    // Seeded lengths up to 64 KiB, nonzero seeds and chained calls:
    // the fold must carry a running CRC in and out exactly as the
    // tables do.
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t len = next() % (64 * 1024 + 1);
        const std::size_t offset = next() % 16;
        const std::string buf = randomBytes(len + offset, next());
        const char *p = buf.data() + offset;
        auto seed = static_cast<std::uint32_t>(next());
        if (seed == 0)
            seed = 1;
        ASSERT_EQ(crc32Update(seed, p, len),
                  detail::crc32UpdateTables(seed, p, len))
            << "trial " << trial << ", length " << len;
        const std::size_t split = len == 0 ? 0 : next() % len;
        const std::uint32_t head = crc32Update(seed, p, split);
        ASSERT_EQ(crc32Update(head, p + split, len - split),
                  detail::crc32UpdateTables(seed, p, len))
            << "trial " << trial << ", split " << split << " of " << len;
    }
}

TEST(Crc32, CombineMatchesConcatenation)
{
    // Empty, one byte, odd lengths around a slicing step, and lengths
    // past 1 MiB, whose x^(8 len) needs ~24 squarings.
    const std::size_t lengths[] = {0,  1,   3,    7,        9,
                                   63, 255, 4097, 1u << 20, (1u << 20) + 13};
    std::uint64_t seed = 1;
    for (const std::size_t lenA : lengths) {
        for (const std::size_t lenB : lengths) {
            const std::string a = randomBytes(lenA, seed++);
            const std::string b = randomBytes(lenB, seed++);
            EXPECT_EQ(crc32Combine(crc32(a), crc32(b), b.size()),
                      crc32(a + b))
                << "|A| = " << lenA << ", |B| = " << lenB;
        }
    }
    // The identity operator and the check value split in two.
    EXPECT_EQ(crc32Combine(0xCBF43926u, 0, 0), 0xCBF43926u);
    EXPECT_EQ(crc32Combine(crc32("1234"), crc32("56789"), 5), 0xCBF43926u);
}

} // namespace
} // namespace amdahl
