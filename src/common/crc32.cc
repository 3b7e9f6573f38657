#include "common/crc32.hh"

#include <array>

namespace amdahl {
namespace {

using Table = std::array<std::uint32_t, 256>;

/**
 * Slicing-by-8 tables for the reflected 0xEDB88320 polynomial.
 * kTables[0] is the classic byte-at-a-time table; kTables[k][i] is the
 * CRC of byte i followed by k zero bytes, so eight lookups — one per
 * input byte, each in its own table — advance the CRC by a whole
 * 64-bit word.
 */
constexpr std::array<Table, 8>
makeTables()
{
    std::array<Table, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
    return t;
}

constexpr auto kTables = makeTables();

/** Little-endian 32-bit load; compiles to one load on x86-64. */
inline std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

/**
 * @return a * b modulo the CRC polynomial, both operands and the
 * result in the reflected bit order (bit 31 is x^0). Shift-and-add
 * over the 32 bits of @p a.
 */
constexpr std::uint32_t
multModP(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t p = 0;
    for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if (a & m)
            p ^= b;
        b = (b & 1u) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
    }
    return p;
}

} // namespace

std::uint32_t
crc32Combine(std::uint32_t crcA, std::uint32_t crcB, std::uint64_t lenB)
{
    // crc(A || B) = crcA * x^(8 lenB) + crcB (mod P): the pre- and
    // post-conditioning XORs cancel between the two terms. Square and
    // multiply over the bits of lenB builds x^(8 lenB).
    std::uint32_t shift = 1u << 31; // x^0
    std::uint32_t square = 1u << 23; // x^8: one zero byte
    for (; lenB != 0; lenB >>= 1) {
        if (lenB & 1u)
            shift = multModP(square, shift);
        square = multModP(square, square);
    }
    return multModP(shift, crcA) ^ crcB;
}

std::uint32_t
crc32Update(std::uint32_t seed, const void *data, std::size_t size)
{
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const unsigned char *>(data);
    for (; size >= 8; p += 8, size -= 8) {
        const std::uint32_t lo = loadLe32(p) ^ c;
        const std::uint32_t hi = loadLe32(p + 4);
        c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; ++p, --size)
        c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace amdahl
