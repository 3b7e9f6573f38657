// Fixture: the CRC-32 fold (src/common/crc32.*) is the second owner
// of vector intrinsics; the same include and intrinsics that are a
// violation anywhere else are allowed here.
// Expected: 0 findings.

#include <immintrin.h>

namespace fx {

__m128i
foldOnce(__m128i acc, __m128i k, const unsigned char *next)
{
    const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
    return _mm_xor_si128(
        _mm_xor_si128(lo, hi),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(next)));
}

} // namespace fx
