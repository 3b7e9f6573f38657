/**
 * @file
 * CRC-32 by carry-less-multiply folding, with slicing-by-8 tables as
 * the fallback and for every short call.
 *
 * A CRC is exact GF(2) arithmetic, so both paths return the same bits
 * at every length, offset and seed (tests/common/test_crc32.cc checks
 * each against a bitwise reference); the CPU's choice moves speed
 * only. On x86-64 CPUs with PCLMULQDQ and SSE4.1, a call of at least
 * kFoldMinBytes folds its longest multiple-of-16 prefix (Gopal et al.,
 * "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
 * Instruction", Intel, 2009) and hands the rest to the tables. The
 * check runs once per process, the way the bid kernel is picked
 * (core/bidding_simd), and no option selects it.
 *
 * The fold is the one piece of this file under a target attribute, and
 * no other translation unit sees PCLMUL codegen. Off x86-64 the
 * `#else` branch reduces it to "fold unsupported". This file and the
 * bid kernel (core/bidding_simd.cc) are the two translation units
 * allowed to use vector intrinsics (amdahl_lint DET-simd pins the
 * boundary).
 */

#include "common/crc32.hh"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/** The running (pre-conditioned) CRC @p c extended over @p size bytes
 *  at @p p, eight bytes per step. */
std::uint32_t
tableUpdate(std::uint32_t c, const unsigned char *p, std::size_t size)
{
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
    return c;
}

/** Calls shorter than this stay on the tables: the fold's fixed
 *  reduction would cost more than it saves. */
constexpr std::size_t kFoldMinBytes = 64;

#if defined(__x86_64__)

bool
foldSupported()
{
    return __builtin_cpu_supports("pclmul") != 0 &&
           __builtin_cpu_supports("sse4.1") != 0;
}

/** @return acc xor lo(x) lo(k) xor hi(x) hi(k), carry-less: the
 *  accumulator @p x folded forward by the distance the pair @p k
 *  encodes, onto the next block @p acc. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
foldInto(__m128i x, __m128i k, __m128i acc)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         acc);
}

/**
 * The running CRC @p c extended over @p size bytes at @p p, where
 * size >= 64 and size % 16 == 0. A 128-bit accumulator stands for its
 * bits times x^(8 d) mod P, d bytes from the end of the input, so one
 * step forward is two 64x64 carry-less products and a xor with the
 * next block. The constants are the published ones for the reflected
 * 0xEDB88320 polynomial: k1, k2 fold 64 bytes, k3, k4 fold 16 bytes,
 * k4 and k5 reduce the last 128 bits to 64, and P' (the polynomial)
 * with mu = floor(x^64 / P) reduce those to 32 by Barrett reduction.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
foldBlocks(std::uint32_t c, const unsigned char *p, std::size_t size)
{
    const auto load = [](const unsigned char *q) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(q));
    };
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    // Four accumulators over 64-byte blocks; the running CRC enters as
    // the first 32 bits of the first block.
    __m128i x1 = _mm_xor_si128(load(p),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x2 = load(p + 16);
    __m128i x3 = load(p + 32);
    __m128i x4 = load(p + 48);
    p += 64;
    size -= 64;
    for (; size >= 64; p += 64, size -= 64) {
        x1 = foldInto(x1, k1k2, load(p));
        x2 = foldInto(x2, k1k2, load(p + 16));
        x3 = foldInto(x3, k1k2, load(p + 32));
        x4 = foldInto(x4, k1k2, load(p + 48));
    }

    // Into one accumulator, then one 16-byte block at a time.
    x1 = foldInto(x1, k3k4, x2);
    x1 = foldInto(x1, k3k4, x3);
    x1 = foldInto(x1, k3k4, x4);
    for (; size >= 16; p += 16, size -= 16)
        x1 = foldInto(x1, k3k4, load(p));

    // 128 -> 64 bits: the low qword times k4, onto the high qword.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    // 64 -> 32 + 32: the low 32 bits times k5, onto the rest.
    x1 = _mm_xor_si128(
        _mm_srli_si128(x1, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

    // Barrett: the quotient q from the low 32 bits and mu; adding
    // q P' leaves the remainder in bits 32..63.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

#else // !defined(__x86_64__)

bool
foldSupported()
{
    return false;
}

// Never dispatched here; the tables keep direct callers correct.
std::uint32_t
foldBlocks(std::uint32_t c, const unsigned char *p, std::size_t size)
{
    return tableUpdate(c, p, size);
}

#endif // defined(__x86_64__)

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
    static const bool fold = foldSupported();
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const unsigned char *>(data);
    if (fold && size >= kFoldMinBytes) {
        const std::size_t folded = size & ~std::size_t{15};
        c = foldBlocks(c, p, folded);
        p += folded;
        size -= folded;
    }
    return tableUpdate(c, p, size) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t
crc32UpdateTables(std::uint32_t seed, const void *data, std::size_t size)
{
    return tableUpdate(seed ^ 0xFFFFFFFFu,
                       static_cast<const unsigned char *>(data), size) ^
           0xFFFFFFFFu;
}

} // namespace detail
} // namespace amdahl
