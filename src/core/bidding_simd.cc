/**
 * @file
 * AVX2 implementation of the bid update.
 *
 * Bit-identity argument (DESIGN.md §16): every per-job operation in
 * the propensity and normalization passes — divide, sqrt, multiply,
 * add, subtract, compare — is correctly rounded under IEEE 754, so
 * evaluating the scalar kernel's exact expression tree four lanes at
 * a time produces the same bits lane by lane. The two places where
 * *order* affects the result stay serial in the scalar order: the
 * per-user propensity total (a strict left fold over the row) and
 * the price fold (untouched; gatherPrices is shared). FMA is
 * deliberately absent from the target attribute — contraction of
 * a*b+c into one rounding *would* change results — and no other
 * translation unit sees AVX2 codegen. Every build compiles this file;
 * on x86-64 the CPU decides at run time whether the kernel runs, and
 * elsewhere the file reduces to the scalar loop it stands in for.
 *
 * Shape of the kernel: two passes per sub-range of kPriceBlockUsers
 * users, not one fused per-user loop. The propensity pass is purely
 * elementwise, so it spans user boundaries — one long vector loop
 * over the sub-range keeps dozens of independent divide/sqrt chains
 * in flight, where a per-user loop (typical rows are a handful of
 * jobs) would serialize on each row's gather-divide-sqrt-fold
 * dependency chain and waste the out-of-order window. The
 * fold+normalize pass then walks users over the propensity rows the
 * first pass left behind. Those rows live in a stack buffer, not
 * kernel.scratch: the round loop is memory-bound once the market
 * outgrows the cache (bench_scaling_users' roofline table), and a
 * per-job scratch array would stream another 16 bytes per job per
 * round through memory (write-allocate plus writeback) for values
 * that are dead microseconds later. The stack buffer is L1-resident
 * between the passes; a sub-range whose rows average more than
 * kChunkBuffer / kPriceBlockUsers = 64 jobs spills to kernel.scratch
 * and stays correct. Walking the parallelFor chunk (kUserGrain
 * users) in sub-ranges keeps that threshold independent of the
 * fan-out grain.
 *
 * This is the one translation unit allowed to use vector intrinsics
 * (amdahl_lint DET-simd pins the boundary).
 */

#include "core/bidding_simd.hh"

#include <cstddef>

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hh"

namespace amdahl::core::detail {

static_assert(sizeof(std::uint32_t) == 4,
              "the gather index load assumes 32-bit server ids");

bool
simdKernelSupported()
{
    return __builtin_cpu_supports("avx2") != 0;
}

namespace {

/**
 * Vectorized propensity for jobs [e, e+4): the unnormalized
 * U = sqrt(f w) * sqrt(p) * s(x), x = b / p, exactly as updateOneUser
 * computes it. Lanes where p <= 0 or b <= 0 (and the s(x) lanes whose
 * denominator is zero) are masked to +0.0, matching the scalar
 * branches.
 */
__attribute__((target("avx2"))) inline __m256d
propensity4(const BidKernel &kernel, std::size_t e, const double *posted)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    // Four scalar loads from the posted-price table, not a hardware
    // gather: the table is small enough to sit in L1 (one double per
    // server), and vgatherdpd is microcoded slowly enough on common
    // server parts — virtualized ones especially — that plain loads
    // beat it by almost 2x on this kernel.
    const std::uint32_t *srv = kernel.server.data() + e;
    const __m256d p = _mm256_setr_pd(posted[srv[0]], posted[srv[1]],
                                     posted[srv[2]], posted[srv[3]]);
    const __m256d b = _mm256_loadu_pd(kernel.bids.data() + e);
    const __m256d active =
        _mm256_and_pd(_mm256_cmp_pd(p, zero, _CMP_GT_OQ),
                      _mm256_cmp_pd(b, zero, _CMP_GT_OQ));
    const __m256d x = _mm256_div_pd(b, p);
    const __m256d f = _mm256_loadu_pd(kernel.fraction.data() + e);
    // s(x) = x / (f + (1 - f) x) — amdahlSpeedup's expression, with
    // its zero-denominator guard as an andnot mask.
    const __m256d denom =
        _mm256_add_pd(f, _mm256_mul_pd(_mm256_sub_pd(one, f), x));
    const __m256d speedup =
        _mm256_andnot_pd(_mm256_cmp_pd(denom, zero, _CMP_EQ_OQ),
                         _mm256_div_pd(x, denom));
    const __m256d sqrtFw = _mm256_loadu_pd(kernel.sqrtFw.data() + e);
    return _mm256_and_pd(
        active,
        _mm256_mul_pd(_mm256_mul_pd(sqrtFw, _mm256_sqrt_pd(p)),
                      speedup));
}

/** The scalar tail of the propensity pass, for rows not a multiple
 *  of the vector width — the same expression, one job at a time. */
inline double
propensity1(const BidKernel &kernel, std::size_t e, const double *posted)
{
    const double p = posted[kernel.server[e]];
    if (!(p > 0.0 && kernel.bids[e] > 0.0))
        return 0.0;
    const double x = kernel.bids[e] / p;
    const double fr = kernel.fraction[e];
    const double denom = fr + (1.0 - fr) * x;
    const double speedup = denom == 0.0 ? 0.0 : x / denom;
    return kernel.sqrtFw[e] * std::sqrt(p) * speedup;
}

} // namespace

__attribute__((target("avx2"))) void
updateUsersRangeSimd(BidKernel &kernel, std::size_t ulo,
                     std::size_t uhi,
                     const std::vector<double> &posted, double damping)
{
    const double *post = posted.data();
    const bool damped = damping < 1.0;
    const __m256d keep = _mm256_set1_pd(1.0 - damping);
    const __m256d move = _mm256_set1_pd(damping);
    constexpr std::size_t kChunkBuffer = 2048;
    alignas(32) double stackRows[kChunkBuffer];

    // Both passes run per sub-range of at most kPriceBlockUsers users,
    // so the stack buffer only has to hold one block's rows whatever
    // the fan-out grain.
    for (std::size_t blo = ulo; blo < uhi; blo += kPriceBlockUsers) {
        const std::size_t bhi = std::min(uhi, blo + kPriceBlockUsers);

        // The sub-range's propensity rows: stack-resident unless its
        // rows are wide (more than kChunkBuffer jobs in all).
        const std::size_t jlo = kernel.userOffset[blo];
        const std::size_t jhi = kernel.userOffset[bhi];
        double *rows = (jhi - jlo) <= kChunkBuffer
                           ? stackRows
                           : kernel.scratch.data() + jlo;

        // Pass 1: elementwise propensities across the sub-range (see
        // the file header for why this spans user boundaries).
        {
            std::size_t e = jlo;
            for (; e + 4 <= jhi; e += 4)
                _mm256_storeu_pd(rows + (e - jlo),
                                 propensity4(kernel, e, post));
            for (; e < jhi; ++e)
                rows[e - jlo] = propensity1(kernel, e, post);
        }

        // Pass 2: per-user fold and normalization over the rows.
        for (std::size_t i = blo; i < bhi; ++i) {
            const std::size_t lo = kernel.userOffset[i];
            const std::size_t hi = kernel.userOffset[i + 1];
            const double *row = rows + (lo - jlo);

            // The strict left fold updateOneUser performs, over the
            // same values in the same order — the one reduction in
            // this kernel whose order is semantic.
            double total = 0.0;
            for (std::size_t e = lo; e < hi; ++e)
                total += row[e - lo];

            if (total <= 0.0) {
                // Same fallback branch as updateOneUser: all
                // propensities vanished, split the budget evenly.
                const double even =
                    kernel.budget[i] / static_cast<double>(hi - lo);
                for (std::size_t e = lo; e < hi; ++e) {
                    kernel.bids[e] =
                        damped ? (1.0 - damping) * kernel.bids[e] +
                                     damping * even
                               : even;
                }
                continue;
            }
            AMDAHL_CHECK_FINITE(total);

            // Normalization: the damped blend of budget * U / total
            // into the bids, elementwise.
            const __m256d bud = _mm256_set1_pd(kernel.budget[i]);
            const __m256d tot = _mm256_set1_pd(total);
            std::size_t e = lo;
            for (; e + 4 <= hi; e += 4) {
                const __m256d s = _mm256_loadu_pd(row + (e - lo));
                const __m256d proposal =
                    _mm256_div_pd(_mm256_mul_pd(bud, s), tot);
                __m256d next = proposal;
                if (damped) {
                    const __m256d prev =
                        _mm256_loadu_pd(kernel.bids.data() + e);
                    next = _mm256_add_pd(_mm256_mul_pd(keep, prev),
                                         _mm256_mul_pd(move, proposal));
                }
                _mm256_storeu_pd(kernel.bids.data() + e, next);
            }
            for (; e < hi; ++e) {
                const double proposal =
                    kernel.budget[i] * row[e - lo] / total;
                kernel.bids[e] =
                    damped ? (1.0 - damping) * kernel.bids[e] +
                                 damping * proposal
                           : proposal;
            }

            // The scalar kernel checks each proposal inline; the
            // vector kernel verifies the finished row so checked
            // builds keep the same contract without serializing the
            // lanes.
            if constexpr (checkedBuild) {
                for (e = lo; e < hi; ++e) {
                    AMDAHL_CHECK_FINITE(kernel.bids[e]);
                    AMDAHL_ASSERT(kernel.bids[e] >= 0.0,
                                  "SIMD proportional update produced ",
                                  "a negative bid for user ", i);
                }
            }
        }
    }
}

} // namespace amdahl::core::detail

#else // !defined(__x86_64__)

namespace amdahl::core::detail {

bool
simdKernelSupported()
{
    return false;
}

// Never dispatched here; the scalar loop keeps direct callers correct.
void
updateUsersRangeSimd(BidKernel &kernel, std::size_t ulo,
                     std::size_t uhi,
                     const std::vector<double> &posted, double damping)
{
    for (std::size_t i = ulo; i < uhi; ++i)
        updateOneUser(kernel, i, posted, damping);
}

} // namespace amdahl::core::detail

#endif // defined(__x86_64__)
