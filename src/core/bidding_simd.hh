/**
 * @file
 * The vectorized bid-update kernel and the CPU dispatch in front of it.
 *
 * DESIGN.md §16 carries the full contract; the short form:
 *
 * The bid update is embarrassingly parallel over users and
 * elementwise over jobs, and every operation in the propensity
 * U = sqrt(f w) * sqrt(p) * s(x) — divide, sqrt, multiply, add,
 * compare — is correctly rounded under IEEE 754. A vector lane that
 * evaluates the *same expression tree* as the scalar kernel therefore
 * produces the *same bits*; vectorization only changes how many lanes
 * evaluate it at once. The AVX2 kernel in bidding_simd.cc exploits
 * exactly that: per-job work runs four lanes wide, while everything
 * whose order matters — the per-user propensity total, the blocked
 * canonical price fold — stays serial in the scalar order. The SIMD
 * translation unit is the only file compiled with AVX2 codegen (a
 * per-function target attribute, never a global -mavx2, and never
 * FMA, whose contraction *would* change results), so no other
 * translation unit's results depend on it.
 *
 * Every build compiles the kernel; the CPU picks it. Scalar
 * updateOneUser remains the reference the kernel is pinned against
 * (tests/core), the path on CPUs without AVX2 and on non-x86 targets,
 * and the update the sharded and lossy paths run.
 */

#ifndef AMDAHL_CORE_BIDDING_SIMD_HH
#define AMDAHL_CORE_BIDDING_SIMD_HH

#include <cstddef>
#include <vector>

#include "core/bidding_kernel.hh"

namespace amdahl::core::detail {

/** @return true when this CPU runs the AVX2 kernel (always false off
 *  x86-64). */
bool simdKernelSupported();

/** The AVX2 bid update for users [ulo, uhi): bit-identical to calling
 *  updateOneUser on each (tests/core/test_bidding_simd.cc pins it).
 *  Only call it where simdKernelSupported() holds. */
void updateUsersRangeSimd(BidKernel &kernel, std::size_t ulo,
                          std::size_t uhi,
                          const std::vector<double> &posted,
                          double damping);

/**
 * The bid update for users [ulo, uhi) against the same
 * posted prices — the one dispatch point between the scalar and SIMD
 * kernels, used by the in-process price exchange (the sharded one
 * updates user by user: a chunk may span shards with different posted
 * prices). Both sides are bit-identical, so the CPU's choice moves
 * speed only.
 */
inline void
updateUsersRange(BidKernel &kernel, std::size_t ulo, std::size_t uhi,
                 const std::vector<double> &posted, double damping)
{
    static const bool simd = simdKernelSupported();
    if (simd) {
        updateUsersRangeSimd(kernel, ulo, uhi, posted, damping);
        return;
    }
    for (std::size_t i = ulo; i < uhi; ++i)
        updateOneUser(kernel, i, posted, damping);
}

} // namespace amdahl::core::detail

#endif // AMDAHL_CORE_BIDDING_SIMD_HH
