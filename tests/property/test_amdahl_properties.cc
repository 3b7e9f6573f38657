/**
 * @file
 * Property sweeps of the Amdahl/Karp-Flatt math over a parameter grid.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/amdahl.hh"
#include "core/utility.hh"

namespace amdahl::core {
namespace {

class AmdahlProperty
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
  protected:
    double f() const { return std::get<0>(GetParam()); }
    double x() const { return std::get<1>(GetParam()); }
};

TEST_P(AmdahlProperty, SpeedupBounds)
{
    const double s = amdahlSpeedup(f(), x());
    EXPECT_GE(s, 0.0);
    // Never super-linear; sub-core allocations of partly serial work
    // can still reach speedup 1 (s(x) <= max(1, x)).
    EXPECT_LE(s, std::max(1.0, x()) + 1e-12);
    if (f() < 1.0) {
        EXPECT_LE(s, 1.0 / (1.0 - f()) + 1e-12);
    }
}

TEST_P(AmdahlProperty, KarpFlattRoundTrips)
{
    if (x() <= 1.0)
        GTEST_SKIP() << "Karp-Flatt needs x > 1";
    const double s = amdahlSpeedup(f(), x());
    if (s <= 0.0)
        GTEST_SKIP();
    EXPECT_NEAR(karpFlatt(s, x()), f(), 1e-9);
}

TEST_P(AmdahlProperty, MarginalIsPositiveAndDecreasing)
{
    if (f() == 0.0 && x() == 0.0)
        GTEST_SKIP();
    const double d1 = amdahlSpeedupDerivative(f(), x());
    const double d2 = amdahlSpeedupDerivative(f(), x() + 1.0);
    EXPECT_GE(d1, 0.0);
    EXPECT_GE(d1, d2 - 1e-15);
}

TEST_P(AmdahlProperty, ConcavityMidpointTest)
{
    const double a = x();
    const double b = x() + 7.0;
    const double mid = amdahlSpeedup(f(), 0.5 * (a + b));
    const double chord =
        0.5 * (amdahlSpeedup(f(), a) + amdahlSpeedup(f(), b));
    EXPECT_GE(mid, chord - 1e-12);
}

TEST_P(AmdahlProperty, CoresForSpeedupInverts)
{
    // The closed-form inverse of Eq. 1, x = s f / (1 - s (1 - f)),
    // recovers the allocation from the speedup wherever s is strictly
    // between 0 and its limit 1 / (1 - f).
    if (f() == 0.0)
        GTEST_SKIP();
    const double s = amdahlSpeedup(f(), x());
    if (s <= 0.0 || s * (1.0 - f()) >= 1.0)
        GTEST_SKIP();
    const double cores = s * f() / (1.0 - s * (1.0 - f()));
    EXPECT_NEAR(cores, x(), 1e-6 * (x() + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AmdahlProperty,
    ::testing::Combine(
        ::testing::Values(0.0, 0.25, 0.53, 0.68, 0.9, 0.99, 1.0),
        ::testing::Values(0.0, 0.5, 1.0, 2.0, 5.5, 12.0, 24.0, 48.0)));

class UtilityProperty
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(UtilityProperty, NormalizationInvariant)
{
    // u(1, 1) == 1 for every (f1, f2) pair regardless of weights.
    const auto [f1, f2] = GetParam();
    const AmdahlUtility u({{f1, 1.7}, {f2, 0.4}});
    EXPECT_NEAR(u.value({1.0, 1.0}), 1.0, 1e-12);
}

TEST_P(UtilityProperty, ScalingWeightsLeavesValueInvariant)
{
    // Utility is scale-free in the weights (Eq. 4 normalizes).
    const auto [f1, f2] = GetParam();
    const AmdahlUtility a({{f1, 1.0}, {f2, 2.0}});
    const AmdahlUtility b({{f1, 10.0}, {f2, 20.0}});
    const std::vector<double> x = {3.0, 7.0};
    EXPECT_NEAR(a.value(x), b.value(x), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UtilityProperty,
    ::testing::Combine(::testing::Values(0.2, 0.6, 0.95),
                       ::testing::Values(0.4, 0.8, 0.99)));

} // namespace
} // namespace amdahl::core
