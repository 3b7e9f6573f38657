/**
 * @file
 * The vectorized bid-update kernel and its runtime mode switch.
 *
 * DESIGN.md §16 carries the full contract; the short form:
 *
 * The Synchronous bid update is embarrassingly parallel over users and
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
 * FMA, whose contraction *would* change results), so enabling
 * AMDAHL_SIMD cannot perturb any other translation unit.
 *
 * Scalar remains the always-available reference: builds without
 * AMDAHL_SIMD, machines without AVX2, and explicit overrides
 * (`--kernel scalar`, AMDAHL_KERNEL=scalar) all run it, and
 * tests/core pin the two kernels bit-equal on the same inputs.
 */

#ifndef AMDAHL_CORE_BIDDING_SIMD_HH
#define AMDAHL_CORE_BIDDING_SIMD_HH

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/bidding_kernel.hh"
#include "exec/parallelism.hh"

namespace amdahl::core::detail {

/** Which bid-update kernel the Synchronous fan-out runs. */
enum class BidKernelMode
{
    /** Resolve at first use: AMDAHL_KERNEL if set, else the SIMD
     *  kernel when compiled in and supported by this CPU. */
    Auto = 0,
    Scalar = 1,
    Simd = 2,
};

#if defined(AMDAHL_SIMD)
/** @return true when this CPU runs the compiled AVX2 kernel. */
bool simdKernelSupported();

/** The AVX2 bid update for users [ulo, uhi): bit-identical to calling
 *  updateOneUser on each (tests/core/test_bidding_simd.cc pins it). */
void updateUsersRangeSimd(BidKernel &kernel, std::size_t ulo,
                          std::size_t uhi,
                          const std::vector<double> &posted,
                          double damping);

inline constexpr bool kSimdKernelCompiled = true;
#else
inline bool
simdKernelSupported()
{
    return false;
}

inline void
updateUsersRangeSimd(BidKernel &, std::size_t, std::size_t,
                     const std::vector<double> &, double)
{
    fatal("SIMD bid kernel selected but not compiled in "
          "(configure with -DAMDAHL_SIMD=ON)");
}

inline constexpr bool kSimdKernelCompiled = false;
#endif

/** Explicit mode override; Auto until someone sets it. */
inline std::atomic<int> bidKernelModeState{0};

/**
 * Set the bid-update kernel (CLI `--kernel`, benches, tests).
 * Selecting Simd when the kernel is unavailable is a configuration
 * error (fatal), not a silent fallback: the caller asked for a
 * specific code path and must learn it does not exist here.
 * @return The previous setting.
 */
inline BidKernelMode
setBidKernelMode(BidKernelMode mode)
{
    if (mode == BidKernelMode::Simd && !simdKernelSupported()) {
        fatal("SIMD bid kernel unavailable: ",
              kSimdKernelCompiled
                  ? "this CPU lacks AVX2"
                  : "binary built without -DAMDAHL_SIMD=ON");
    }
    return static_cast<BidKernelMode>(
        bidKernelModeState.exchange(static_cast<int>(mode),
                                    std::memory_order_relaxed));
}

/**
 * The effective kernel mode (never Auto): explicit setting first,
 * then the AMDAHL_KERNEL environment override (resolved through
 * exec/, the designated environment owner), then SIMD when available.
 * An environment request for an unavailable SIMD kernel downgrades to
 * Scalar with a warning — the environment configures a whole fleet
 * and must not hard-fail the binaries built without the option.
 */
inline BidKernelMode
bidKernelMode()
{
    const int configured =
        bidKernelModeState.load(std::memory_order_relaxed);
    if (configured != static_cast<int>(BidKernelMode::Auto))
        return static_cast<BidKernelMode>(configured);
    const int env = exec::bidKernelOverride();
    if (env == 0)
        return BidKernelMode::Scalar;
    if (env == 1) {
        if (simdKernelSupported())
            return BidKernelMode::Simd;
        warn("AMDAHL_KERNEL=simd but the SIMD kernel is unavailable ",
             kSimdKernelCompiled ? "(no AVX2 on this CPU)"
                                 : "(built without -DAMDAHL_SIMD=ON)",
             "; running the scalar kernel");
        return BidKernelMode::Scalar;
    }
    return simdKernelSupported() ? BidKernelMode::Simd
                                 : BidKernelMode::Scalar;
}

/**
 * The Synchronous bid update for users [ulo, uhi) against the same
 * posted prices — the one dispatch point between the scalar and SIMD
 * kernels, used by the in-process price exchange (the sharded one
 * updates user by user: a chunk may span shards with different posted
 * prices). Both sides are bit-identical, so the mode is a performance
 * knob in the same sense as the thread count.
 */
inline void
updateUsersRange(BidKernel &kernel, std::size_t ulo, std::size_t uhi,
                 const std::vector<double> &posted, double damping)
{
    if (bidKernelMode() == BidKernelMode::Simd) {
        updateUsersRangeSimd(kernel, ulo, uhi, posted, damping);
        return;
    }
    for (std::size_t i = ulo; i < uhi; ++i)
        updateOneUser(kernel, i, posted, damping);
}

/** Parse a `--kernel` style value: "scalar", "simd", or "auto".
 *  @throws FatalError on anything else. */
inline BidKernelMode
parseBidKernelMode(const std::string &text)
{
    if (text == "auto")
        return BidKernelMode::Auto;
    if (text == "scalar")
        return BidKernelMode::Scalar;
    if (text == "simd")
        return BidKernelMode::Simd;
    fatal("invalid kernel mode '", text,
          "' (want scalar, simd, or auto)");
}

} // namespace amdahl::core::detail

namespace amdahl::core {
// The mode switch is caller-facing (CLI --kernel, benches, tests);
// the kernels themselves stay in detail.
using detail::BidKernelMode;
using detail::bidKernelMode;
using detail::kSimdKernelCompiled;
using detail::parseBidKernelMode;
using detail::setBidKernelMode;
using detail::simdKernelSupported;
} // namespace amdahl::core

#endif // AMDAHL_CORE_BIDDING_SIMD_HH
