/**
 * @file
 * Unit tests for Amdahl's Law and the Karp-Flatt metric.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "core/amdahl.hh"

namespace amdahl::core {
namespace {

TEST(Amdahl, BoundaryValues)
{
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.9, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.9, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.0, 5.0), 1.0); // serial workload
    EXPECT_DOUBLE_EQ(amdahlSpeedup(1.0, 5.0), 5.0); // fully parallel
}

TEST(Amdahl, PaperEquationOneForm)
{
    // s(x) = x / (x (1 - F) + F): check a hand-computed point.
    // f = 0.5, x = 4: 4 / (4*0.5 + 0.5) = 1.6.
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.5, 4.0), 1.6);
}

TEST(Amdahl, AcceptsFractionalAllocations)
{
    const double s_half = amdahlSpeedup(0.8, 0.5);
    EXPECT_GT(s_half, 0.0);
    EXPECT_LT(s_half, 1.0);
    EXPECT_NEAR(s_half, 0.5 / (0.8 + 0.2 * 0.5), 1e-15);
}

TEST(Amdahl, MonotonicInAllocation)
{
    double prev = 0.0;
    for (double x = 0.0; x <= 64.0; x += 0.5) {
        const double s = amdahlSpeedup(0.9, x);
        EXPECT_GE(s, prev);
        prev = s;
    }
}

TEST(Amdahl, MonotonicInParallelFraction)
{
    double prev = 0.0;
    for (double f = 0.0; f <= 1.0; f += 0.05) {
        const double s = amdahlSpeedup(f, 16.0);
        EXPECT_GE(s, prev - 1e-12);
        prev = s;
    }
}

TEST(Amdahl, SpeedupBoundedByLimit)
{
    for (double f : {0.5, 0.9, 0.99}) {
        const double limit = 1.0 / (1.0 - f);
        EXPECT_LT(amdahlSpeedup(f, 1e9), limit);
        EXPECT_NEAR(amdahlSpeedup(f, 1e9), limit, limit * 1e-6);
    }
}

TEST(Amdahl, LimitValues)
{
    // lim s(x) = 1 / (1 - f): 2 at f = 0.5, 10 at f = 0.9, unbounded
    // (linear scaling) at f = 1.
    EXPECT_NEAR(amdahlSpeedup(0.5, 1e12), 2.0, 1e-9);
    EXPECT_NEAR(amdahlSpeedup(0.9, 1e12), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(amdahlSpeedup(1.0, 1e12), 1e12);
}

TEST(Amdahl, DerivativeMatchesFiniteDifference)
{
    const double h = 1e-7;
    for (double f : {0.3, 0.7, 0.95}) {
        for (double x : {0.5, 1.0, 4.0, 16.0}) {
            const double numeric =
                (amdahlSpeedup(f, x + h) - amdahlSpeedup(f, x - h)) /
                (2.0 * h);
            EXPECT_NEAR(amdahlSpeedupDerivative(f, x), numeric, 1e-5);
        }
    }
}

TEST(Amdahl, DomainEdgesAreWellDefined)
{
    // x = 0 and f = 1 corners must produce finite, meaningful values,
    // never inf/NaN: zero cores run nothing, a fully parallel job
    // scales linearly, and a serial job's speedup is constant 1 with
    // derivative 0 everywhere (including the 0/0 corner at x = 0).
    EXPECT_DOUBLE_EQ(amdahlSpeedup(1.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(amdahlSpeedup(1.0, 7.0), 7.0);
    EXPECT_DOUBLE_EQ(amdahlSpeedupDerivative(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(amdahlSpeedupDerivative(0.0, 4.0), 0.0);
    EXPECT_DOUBLE_EQ(amdahlSpeedupDerivative(1.0, 0.0), 1.0);
}

TEST(Amdahl, DerivativeShowsDiminishingReturns)
{
    double prev = amdahlSpeedupDerivative(0.9, 0.0);
    for (double x = 1.0; x <= 32.0; x += 1.0) {
        const double d = amdahlSpeedupDerivative(0.9, x);
        EXPECT_LT(d, prev);
        EXPECT_GT(d, 0.0);
        prev = d;
    }
}

TEST(Amdahl, ValidatesInputs)
{
    EXPECT_THROW(amdahlSpeedup(-0.1, 1.0), FatalError);
    EXPECT_THROW(amdahlSpeedup(1.1, 1.0), FatalError);
    EXPECT_THROW(amdahlSpeedup(0.5, -1.0), FatalError);
    EXPECT_THROW(amdahlSpeedupDerivative(0.5, -1.0), FatalError);
    EXPECT_THROW(amdahlSpeedupDerivative(2.0, 1.0), FatalError);
}

TEST(KarpFlatt, InvertsAmdahlExactly)
{
    // F recovered from a noiseless Amdahl speedup equals f, for any
    // measurement core count (the Figure 1 flat-line property).
    for (double f : {0.55, 0.8, 0.97}) {
        for (double x : {2.0, 4.0, 8.0, 24.0, 48.0}) {
            const double s = amdahlSpeedup(f, x);
            EXPECT_NEAR(karpFlatt(s, x), f, 1e-12);
        }
    }
}

TEST(KarpFlatt, PaperEquationTwoForm)
{
    // F = (1 - 1/s)(1 - 1/x)^-1: hand-computed s=3, x=4 -> (2/3)/(3/4).
    EXPECT_NEAR(karpFlatt(3.0, 4.0), (2.0 / 3.0) / (3.0 / 4.0), 1e-15);
}

TEST(KarpFlatt, SubAmdahlSpeedupLowersEstimate)
{
    // Overheads reduce measured speedup below the Amdahl bound; the
    // estimate must drop below the true structural fraction.
    const double f = 0.9;
    const double x = 16.0;
    const double degraded = 0.8 * amdahlSpeedup(f, x);
    EXPECT_LT(karpFlatt(degraded, x), f);
}

TEST(KarpFlatt, SpeedupBelowOneGivesNegativeFraction)
{
    // A "slowdown" measurement yields F < 0; callers clamp.
    EXPECT_LT(karpFlatt(0.5, 8.0), 0.0);
}

TEST(KarpFlatt, ValidatesInputs)
{
    EXPECT_THROW(karpFlatt(0.0, 4.0), FatalError);
    EXPECT_THROW(karpFlatt(-1.0, 4.0), FatalError);
    EXPECT_THROW(karpFlatt(2.0, 0.5), FatalError);
}

TEST(KarpFlatt, SingleCoreIsWellDefined)
{
    // F is 0/0 at x = 1; the implementation returns the clamped limit
    // instead of inf/NaN: no measurable speedup means fully serial,
    // superlinear single-core "speedup" clamps to fully parallel.
    EXPECT_DOUBLE_EQ(karpFlatt(1.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(karpFlatt(0.5, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(karpFlatt(2.0, 1.0), 1.0);
    EXPECT_TRUE(std::isfinite(karpFlatt(1.0, 1.0)));
}

} // namespace
} // namespace amdahl::core
