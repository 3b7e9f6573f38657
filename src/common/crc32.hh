/**
 * @file
 * CRC-32 (IEEE 802.3, the zlib polynomial) for durable-state integrity.
 *
 * The durability layer checksums every journal record and snapshot
 * payload so torn writes and bit rot are *detected* instead of silently
 * applied. The reflected 0xEDB88320 polynomial with init/xorout
 * 0xFFFFFFFF matches zlib's crc32(), so fixtures and external tooling
 * can compute reference values with any stock implementation.
 *
 * Crc32 is also used as a cheap deterministic digest of per-epoch
 * market events (arrivals, admissions, allocations): recovery replays
 * epochs and compares digests against the journal to prove the replay
 * reproduced exactly what the crashed process did, and every network
 * frame carries the CRC of its payload.
 *
 * On x86-64 CPUs with PCLMULQDQ, calls of 64 bytes or more fold 16
 * bytes at a time with carry-less multiplies (crc32.cc); shorter
 * calls, the last 0-15 bytes, and every CPU without it run
 * slicing-by-8 tables. The CPU picks once per process
 * and no option selects it. Both paths return the same bits at every
 * length, offset and seed, so no digest depends on the CPU.
 */

#ifndef AMDAHL_COMMON_CRC32_HH
#define AMDAHL_COMMON_CRC32_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/bytes.hh"

namespace amdahl {

/** @return crc32(@p seed) extended over @p size bytes at @p data. */
std::uint32_t crc32Update(std::uint32_t seed, const void *data,
                          std::size_t size);

namespace detail {

/** crc32Update on the slicing-by-8 tables alone, whatever the CPU:
 *  the tests compare both paths through it. */
std::uint32_t crc32UpdateTables(std::uint32_t seed, const void *data,
                                std::size_t size);

} // namespace detail

/**
 * @return The CRC-32 of A followed by B, given only @p crcA =
 * crc32(A), @p crcB = crc32(B) and @p lenB = |B| (zlib's
 * crc32_combine). Costs O(log lenB) 32-bit carry-less products, not a
 * pass over B, so a cached CRC of a long, unchanging B can be glued
 * behind a freshly computed A.
 */
std::uint32_t crc32Combine(std::uint32_t crcA, std::uint32_t crcB,
                           std::uint64_t lenB);

/** @return The CRC-32 of @p bytes (one-shot). */
inline std::uint32_t
crc32(std::string_view bytes)
{
    return crc32Update(0, bytes.data(), bytes.size());
}

/**
 * Incremental CRC-32 with typed folds for digest building.
 *
 * Integral and floating values are folded as little-endian fixed-width
 * bytes, so a digest is a pure function of the value sequence —
 * independent of platform struct layout.
 */
class Crc32
{
  public:
    /** Fold raw bytes. */
    void
    update(const void *data, std::size_t size)
    {
        crc_ = crc32Update(crc_, data, size);
    }

    /** Fold a string's bytes (length-prefixed, so "ab","c" != "a","bc"). */
    void
    update(std::string_view bytes)
    {
        updateU64(bytes.size());
        update(bytes.data(), bytes.size());
    }

    /** Fold one 64-bit value as 8 little-endian bytes. */
    void
    updateU64(std::uint64_t v)
    {
        char b[8];
        detail::storeLe<8>(b, v);
        update(b, sizeof b);
    }

    /** Fold one 32-bit value as 4 little-endian bytes. */
    void
    updateU32(std::uint32_t v)
    {
        char b[4];
        detail::storeLe<4>(b, v);
        update(b, sizeof b);
    }

    /** Fold a double by its IEEE-754 bit pattern (exact, no rounding). */
    void updateF64(double v) { updateU64(std::bit_cast<std::uint64_t>(v)); }

    /** @return The digest over everything folded so far. */
    std::uint32_t value() const { return crc_; }

  private:
    std::uint32_t crc_ = 0;
};

} // namespace amdahl

#endif // AMDAHL_COMMON_CRC32_HH
