/**
 * @file
 * Unit tests for scalar root finding and minimization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "solver/root_find.hh"

namespace amdahl::solver {
namespace {

TEST(Bisect, FindsSquareRoot)
{
    const double root =
        bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
    EXPECT_NEAR(root, std::sqrt(2.0), 1e-9);
}

TEST(Bisect, AcceptsRootAtBracketEnd)
{
    EXPECT_DOUBLE_EQ(bisect([](double x) { return x; }, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(bisect([](double x) { return x - 1.0; }, 0.0, 1.0),
                     1.0);
}

TEST(Bisect, HandlesDecreasingFunctions)
{
    const double root =
        bisect([](double x) { return 5.0 - x; }, 0.0, 10.0);
    EXPECT_NEAR(root, 5.0, 1e-9);
}

TEST(Bisect, RejectsBadBracket)
{
    EXPECT_THROW(bisect([](double x) { return x; }, 2.0, 1.0),
                 FatalError);
    EXPECT_THROW(
        bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
        FatalError);
}

TEST(Bisect, RespectsTolerance)
{
    ScalarSolveOptions opts;
    opts.tolerance = 1e-3;
    const double root =
        bisect([](double x) { return x - 0.333; }, 0.0, 1.0, opts);
    EXPECT_NEAR(root, 0.333, 1e-3);
}

/**
 * bisect as it was before it stopped at a collapsed bracket: every
 * one of opts.maxIterations steps runs, even once lo and hi are
 * adjacent doubles and no step can move them. The reference the
 * early exit is pinned against.
 */
double
fullLengthBisect(const std::function<double(double)> &f, double lo,
                 double hi, const ScalarSolveOptions &opts)
{
    double flo = f(lo);
    const double fhi = f(hi);
    if (flo == 0.0)
        return lo;
    if (fhi == 0.0)
        return hi;
    for (int it = 0; it < opts.maxIterations; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double fmid = f(mid);
        if (fmid == 0.0 || hi - lo <= opts.tolerance)
            return mid;
        if ((fmid > 0.0) == (flo > 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

/** Bisection of @p f both ways: same bits, and never more calls. */
struct BisectComparison
{
    long early = 0; //!< Calls of f by bisect.
    long full = 0;  //!< Calls of f by fullLengthBisect.
};

void
expectSameBits(const std::function<double(double)> &f, double lo,
               double hi, const ScalarSolveOptions &opts,
               BisectComparison &calls)
{
    long early = 0;
    long full = 0;
    const double got = bisect(
        [&](double x) {
            ++early;
            return f(x);
        },
        lo, hi, opts);
    const double want = fullLengthBisect(
        [&](double x) {
            ++full;
            return f(x);
        },
        lo, hi, opts);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "bracket [" << lo << ", " << hi << "] tolerance "
        << opts.tolerance << " iterations " << opts.maxIterations;
    ASSERT_LE(early, full);
    calls.early += early;
    calls.full += full;
}

/** One water-filling item: weight, clamped fraction, price. */
struct SpendItem
{
    double weight;
    double fraction;
    double price;
};

/** Aggregate spend at multiplier @p lambda, minus @p budget: the
 *  function waterFill bisects (solver/water_filling.cc). */
double
spendExcess(const std::vector<SpendItem> &items, double budget,
            double lambda)
{
    double total = 0.0;
    for (const SpendItem &it : items) {
        const double radicand =
            it.weight * it.fraction / (lambda * it.price);
        const double x = (std::sqrt(radicand) - it.fraction) /
                         (1.0 - it.fraction);
        total += it.price * std::max(0.0, x);
    }
    return total - budget;
}

TEST(Bisect, EarlyExitMatchesFullLengthOnWaterFillSpend)
{
    Rng rng(0xb15ec7);
    BisectComparison calls;
    for (int trial = 0; trial < 3000; ++trial) {
        std::vector<SpendItem> items(
            static_cast<std::size_t>(rng.uniformInt(1, 8)));
        double lambdaHi = 0.0;
        for (SpendItem &it : items) {
            it.weight = rng.uniform(0.1, 4.0);
            // Up to the clamp waterFill applies near f == 1, where
            // the spend curve is stiffest.
            it.fraction = std::min(rng.uniform(0.01, 1.0), 1.0 - 1e-9);
            it.price = std::exp(rng.uniform(-10.0, 10.0));
            lambdaHi =
                std::max(lambdaHi, it.weight / (it.price * it.fraction));
        }
        const double budget = std::exp(rng.uniform(-5.0, 5.0));
        const auto f = [&](double l) {
            return spendExcess(items, budget, l);
        };
        // waterFill's bracket: halve down from lambdaHi until the
        // spend exceeds the budget.
        double lambdaLo = lambdaHi;
        while (f(lambdaLo) < 0.0)
            lambdaLo *= 0.5;
        ScalarSolveOptions opts;
        opts.tolerance = 0.0;
        opts.maxIterations = 200;
        expectSameBits(f, lambdaLo, lambdaHi, opts, calls);
    }
    EXPECT_LT(calls.early, calls.full);
}

TEST(Bisect, EarlyExitMatchesFullLengthOnDecreasingFunctions)
{
    // A root that is itself a double is hit exactly before the bracket
    // collapses (the first case); a root between two doubles (the
    // half-gap line, and the cubic and arctangent at random levels)
    // runs the bracket down to adjacent doubles.
    Rng rng(0xdec5);
    BisectComparison calls;
    for (int trial = 0; trial < 4000; ++trial) {
        const double lo = rng.uniform(-100.0, 100.0);
        const double hi = lo + std::exp(rng.uniform(-25.0, 5.0));
        const double u = rng.uniform(0.25, 0.75);
        const double root = lo + (hi - lo) * u;
        const double scale = std::exp(rng.uniform(-20.0, 20.0));
        ScalarSolveOptions opts;
        opts.tolerance = 0.0;
        opts.maxIterations = static_cast<int>(rng.uniformInt(0, 200));
        switch (trial % 4) {
        case 0:
            expectSameBits([&](double x) { return scale * (root - x); },
                           lo, hi, opts, calls);
            break;
        case 1: {
            const double halfGap =
                0.5 * (std::nextafter(root, hi) - root);
            expectSameBits(
                [&](double x) { return (root - x) - halfGap; }, lo, hi,
                opts, calls);
            break;
        }
        case 2: {
            const double level =
                lo * lo * lo + (hi * hi * hi - lo * lo * lo) * u;
            expectSameBits(
                [&](double x) { return scale * (level - x * x * x); },
                lo, hi, opts, calls);
            break;
        }
        default: {
            const double level =
                std::atan(lo) + (std::atan(hi) - std::atan(lo)) * u;
            expectSameBits(
                [&](double x) { return level - std::atan(x); }, lo, hi,
                opts, calls);
            break;
        }
        }
    }
    EXPECT_LT(calls.early, calls.full);
}

TEST(Bisect, EarlyExitMatchesFullLengthWithPositiveTolerance)
{
    Rng rng(0x7015);
    BisectComparison calls;
    for (int trial = 0; trial < 3000; ++trial) {
        const double lo = rng.uniform(-10.0, 10.0);
        const double hi = lo + std::exp(rng.uniform(-10.0, 3.0));
        const double root = lo + (hi - lo) * rng.uniform(0.0, 1.0);
        ScalarSolveOptions opts;
        // From a width the bracket reaches in a few steps down to
        // one it can never reach, so both exits are exercised.
        opts.tolerance =
            (hi - lo) * std::ldexp(1.0, -static_cast<int>(
                                            rng.uniformInt(0, 70)));
        opts.maxIterations = 200;
        expectSameBits([&](double x) { return x - root; }, lo, hi, opts,
                       calls);
    }
}

TEST(Bisect, StopsOnceTheBracketCollapses)
{
    // [1, 2] shrinks to adjacent doubles (spacing 2^-52) after 52
    // halvings; with the two end evaluations that is at most 56 calls
    // where the full 200 steps would make 202.
    long calls = 0;
    ScalarSolveOptions opts;
    opts.tolerance = 0.0;
    opts.maxIterations = 200;
    const double root = bisect(
        [&](double x) {
            ++calls;
            return x * x - 2.0;
        },
        1.0, 2.0, opts);
    EXPECT_LE(calls, 56);
    EXPECT_NEAR(root, std::sqrt(2.0), 4e-16);
}

} // namespace
} // namespace amdahl::solver
