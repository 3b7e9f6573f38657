/**
 * @file
 * Unit tests for statistical summaries.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/stats.hh"

namespace amdahl {
namespace {

TEST(OnlineStats, EmptyAccumulator)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleObservation)
{
    OnlineStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMeanAndVariance)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0); // classic textbook sample
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(OnlineStats, TracksExtremes)
{
    OnlineStats s;
    for (double x : {3.0, -1.0, 7.0, 2.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.min(), -1.0);
    EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(Stats, MeanOfVector)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, MeanOfEmptyIsFatal)
{
    EXPECT_THROW(mean({}), FatalError);
}

TEST(Stats, VarianceOfVector)
{
    EXPECT_DOUBLE_EQ(variance({1.0, 1.0, 1.0}), 0.0);
    EXPECT_DOUBLE_EQ(variance({0.0, 2.0}), 1.0);
}

TEST(Stats, GeometricMeanKnownValues)
{
    EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_NEAR(geometricMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(Stats, GeometricMeanRejectsNonPositive)
{
    EXPECT_THROW(geometricMean({1.0, 0.0}), FatalError);
    EXPECT_THROW(geometricMean({-2.0}), FatalError);
    EXPECT_THROW(geometricMean({}), FatalError);
}

TEST(Stats, QuantileEndpoints)
{
    const std::vector<double> xs = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 3.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
}

TEST(Stats, QuantileInterpolates)
{
    // Type-7 interpolation: q=0.25 on {1,2,3,4} is 1.75.
    EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.25), 1.75);
}

TEST(Stats, QuantileValidatesInput)
{
    EXPECT_THROW(quantile({}, 0.5), FatalError);
    EXPECT_THROW(quantile({1.0}, -0.1), FatalError);
    EXPECT_THROW(quantile({1.0}, 1.1), FatalError);
}

TEST(Stats, BoxplotFiveNumberSummary)
{
    const auto b = boxplot({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(b.min, 1.0);
    EXPECT_DOUBLE_EQ(b.q1, 2.0);
    EXPECT_DOUBLE_EQ(b.median, 3.0);
    EXPECT_DOUBLE_EQ(b.q3, 4.0);
    EXPECT_DOUBLE_EQ(b.max, 5.0);
}

TEST(Stats, MapeKnownValue)
{
    // |10-8|/8 = 0.25 and |6-6|/6 = 0 -> mean 12.5%.
    EXPECT_NEAR(
        meanAbsolutePercentageError({10.0, 6.0}, {8.0, 6.0}), 12.5,
        1e-12);
}

TEST(Stats, MapeValidatesInput)
{
    EXPECT_THROW(meanAbsolutePercentageError({1.0}, {1.0, 2.0}),
                 FatalError);
    EXPECT_THROW(meanAbsolutePercentageError({1.0}, {0.0}), FatalError);
    EXPECT_THROW(meanAbsolutePercentageError({}, {}), FatalError);
}

} // namespace
} // namespace amdahl
