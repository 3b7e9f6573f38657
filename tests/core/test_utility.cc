/**
 * @file
 * Unit tests for the Amdahl utility function (paper Eq. 4).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/amdahl.hh"
#include "core/utility.hh"

namespace amdahl::core {
namespace {

TEST(Utility, UnitAllocationIsExactlyOne)
{
    // "Utility is one when the user receives one core per server."
    const AmdahlUtility u({{0.53, 1.0}, {0.93, 2.5}, {0.99, 0.3}});
    EXPECT_DOUBLE_EQ(u.value({1.0, 1.0, 1.0}), 1.0);
}

TEST(Utility, SingleJobEqualsSpeedup)
{
    const AmdahlUtility u({{0.8, 1.0}});
    for (double x : {0.0, 1.0, 4.0, 16.0})
        EXPECT_DOUBLE_EQ(u.value({x}), amdahlSpeedup(0.8, x));
}

TEST(Utility, PaperExampleAliceUtility)
{
    // Alice runs dedup (f=0.53) and bodytrack (f=0.93) with equal
    // weights; u = 0.5 (s_dedup + s_bodytrack).
    const AmdahlUtility alice({{0.53, 1.0}, {0.93, 1.0}});
    const double x_c = 1.34, x_d = 8.68;
    const double expected =
        0.5 * (amdahlSpeedup(0.53, x_c) + amdahlSpeedup(0.93, x_d));
    EXPECT_NEAR(alice.value({x_c, x_d}), expected, 1e-12);
}

TEST(Utility, WeightsActAsWorkRates)
{
    // A job with double weight contributes double un-normalized
    // utility at the same allocation.
    const AmdahlUtility u({{0.9, 2.0}, {0.9, 1.0}});
    EXPECT_DOUBLE_EQ(u.jobUtility(0, 4.0), 2.0 * u.jobUtility(1, 4.0));
    // But the normalized value at one core each is still 1.
    EXPECT_DOUBLE_EQ(u.value({1.0, 1.0}), 1.0);
}

TEST(Utility, ValueIsMonotone)
{
    const AmdahlUtility u({{0.7, 1.0}, {0.95, 1.0}});
    EXPECT_LT(u.value({1.0, 1.0}), u.value({2.0, 1.0}));
    EXPECT_LT(u.value({2.0, 1.0}), u.value({2.0, 3.0}));
}

TEST(Utility, ValueIsConcaveAlongCoordinates)
{
    const AmdahlUtility u({{0.85, 1.0}});
    // Midpoint value above chord: u((a+b)/2) >= (u(a)+u(b))/2.
    const double a = 1.0, b = 9.0;
    EXPECT_GE(u.value({0.5 * (a + b)}),
              0.5 * (u.value({a}) + u.value({b})));
}

TEST(Utility, GradientMatchesFiniteDifferences)
{
    const AmdahlUtility u({{0.6, 1.0}, {0.9, 3.0}});
    const std::vector<double> x = {2.0, 5.0};
    const auto grad = u.gradient(x);
    const double h = 1e-6;
    for (std::size_t j = 0; j < x.size(); ++j) {
        auto xp = x, xm = x;
        xp[j] += h;
        xm[j] -= h;
        const double numeric =
            (u.value(xp) - u.value(xm)) / (2.0 * h);
        EXPECT_NEAR(grad[j], numeric, 1e-6);
    }
}

TEST(Utility, MarginalDecreases)
{
    const AmdahlUtility u({{0.9, 1.0}});
    EXPECT_GT(u.jobMarginal(0, 1.0), u.jobMarginal(0, 2.0));
    EXPECT_GT(u.jobMarginal(0, 2.0), u.jobMarginal(0, 8.0));
}

TEST(Utility, AccessorsAndBounds)
{
    const AmdahlUtility u({{0.5, 1.0}, {0.6, 2.0}});
    EXPECT_EQ(u.size(), 2u);
    EXPECT_DOUBLE_EQ(u.totalWeight(), 3.0);
    EXPECT_DOUBLE_EQ(u.term(1).parallelFraction, 0.6);
    EXPECT_THROW(u.term(2), FatalError);
}

TEST(Utility, ValidatesConstruction)
{
    EXPECT_THROW(AmdahlUtility({}), FatalError);
    EXPECT_THROW(AmdahlUtility({{1.5, 1.0}}), FatalError);
    EXPECT_THROW(AmdahlUtility({{-0.1, 1.0}}), FatalError);
    EXPECT_THROW(AmdahlUtility({{0.5, 0.0}}), FatalError);
    EXPECT_THROW(AmdahlUtility({{0.5, -2.0}}), FatalError);
}

TEST(Utility, ValidatesAllocationArity)
{
    const AmdahlUtility u({{0.5, 1.0}, {0.6, 1.0}});
    EXPECT_THROW(u.value({1.0}), FatalError);
    EXPECT_THROW(u.gradient({1.0, 2.0, 3.0}), FatalError);
}

TEST(Utility, SerialJobContributesConstantUtility)
{
    const AmdahlUtility u({{0.0, 1.0}, {0.9, 1.0}});
    // The serial job's speedup is 1 for any positive allocation.
    EXPECT_DOUBLE_EQ(u.jobUtility(0, 1.0), u.jobUtility(0, 100.0));
}

} // namespace
} // namespace amdahl::core
