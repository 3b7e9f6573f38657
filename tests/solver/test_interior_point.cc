/**
 * @file
 * Unit tests for the log-barrier interior-point solver.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "solver/interior_point.hh"
#include "solver/water_filling.hh"

namespace amdahl::solver {
namespace {

/** A separable concave quadratic: sum_j (a_j b_j - 0.5 c_j b_j^2). */
class Quadratic : public SeparableConcave
{
  public:
    Quadratic(std::vector<double> a, std::vector<double> c)
        : a_(std::move(a)), c_(std::move(c))
    {}

    std::size_t size() const override { return a_.size(); }

    double
    value(std::size_t j, double b) const override
    {
        return a_[j] * b - 0.5 * c_[j] * b * b;
    }

    double
    gradient(std::size_t j, double b) const override
    {
        return a_[j] - c_[j] * b;
    }

    double
    hessian(std::size_t j, double) const override
    {
        return -c_[j];
    }

  private:
    std::vector<double> a_, c_;
};

/** Amdahl-style objective matching the water-filling problem. */
class AmdahlMoney : public SeparableConcave
{
  public:
    AmdahlMoney(std::vector<WaterFillItem> items)
        : items_(std::move(items))
    {}

    std::size_t size() const override { return items_.size(); }

    double
    value(std::size_t j, double b) const override
    {
        const auto &it = items_[j];
        const double x = b / it.price;
        return it.weight * x /
               (it.parallelFraction + (1.0 - it.parallelFraction) * x);
    }

    double
    gradient(std::size_t j, double b) const override
    {
        const auto &it = items_[j];
        const double f = it.parallelFraction;
        const double x = b / it.price;
        const double denom = f + (1.0 - f) * x;
        return it.weight * f / (denom * denom) / it.price;
    }

    double
    hessian(std::size_t j, double b) const override
    {
        const auto &it = items_[j];
        const double f = it.parallelFraction;
        const double x = b / it.price;
        const double denom = f + (1.0 - f) * x;
        return -2.0 * it.weight * f * (1.0 - f) /
               (denom * denom * denom) / (it.price * it.price);
    }

  private:
    std::vector<WaterFillItem> items_;
};

TEST(InteriorPoint, UnconstrainedInteriorOptimum)
{
    // max 4b - b^2 on [0, 10]: optimum b = 2 (interior).
    Quadratic obj({4.0}, {2.0});
    const auto b = maximizeOnSimplex(obj, 10.0);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_NEAR(b[0], 2.0, 1e-5);
}

TEST(InteriorPoint, BudgetBindsForLinearObjective)
{
    // Nearly linear objective: all budget should be spent on the
    // steeper coordinate.
    Quadratic obj({5.0, 1.0}, {1e-4, 1e-4});
    const auto b = maximizeOnSimplex(obj, 1.0);
    EXPECT_NEAR(b[0], 1.0, 1e-3);
    EXPECT_NEAR(b[1], 0.0, 1e-3);
}

TEST(InteriorPoint, SymmetricProblemSplitsEvenly)
{
    Quadratic obj({3.0, 3.0}, {1.0, 1.0});
    const auto b = maximizeOnSimplex(obj, 2.0);
    EXPECT_NEAR(b[0], b[1], 1e-5);
}

TEST(InteriorPoint, MatchesWaterFillingOnAmdahlObjective)
{
    // The interior-point and closed-form solvers must agree: this is
    // the cross-validation the BR baseline relies on.
    const std::vector<WaterFillItem> items = {
        {1.0, 0.9, 0.2}, {1.0, 0.7, 0.4}, {2.0, 0.85, 0.3}};
    const double budget = 3.0;
    AmdahlMoney obj(items);
    const auto ip = maximizeOnSimplex(obj, budget);
    const auto wf = waterFill(items, budget);
    for (std::size_t j = 0; j < items.size(); ++j)
        EXPECT_NEAR(ip[j], wf.spend[j], 2e-3 * budget);
}

TEST(InteriorPoint, AmdahlObjectiveMatchesPinnedBits)
{
    // The output bits and step counts at the default options, recorded
    // from an earlier build: the barrier schedule (initial weight,
    // growth, Newton cap and decrement target) is a set of constants,
    // and this pin holds them in place.
    const std::vector<WaterFillItem> items = {
        {1.0, 0.9, 0.2}, {1.0, 0.7, 0.4}, {2.0, 0.85, 0.3},
        {0.5, 0.99, 0.1}};
    AmdahlMoney obj(items);
    InteriorPointStats stats;
    const auto b = maximizeOnSimplex(obj, 3.0, {}, &stats);
    const std::uint64_t pinned[] = {
        0x3fdb49d763b0808dull, 0x3e06621477ff3bcfull,
        0x3fe98c451c888153ull, 0x3ffc676798a21dceull};
    ASSERT_EQ(b.size(), std::size(pinned));
    for (std::size_t j = 0; j < b.size(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(b[j]), pinned[j])
            << "b[" << j << "] bits 0x" << std::hex
            << std::bit_cast<std::uint64_t>(b[j]);
    }
    EXPECT_EQ(stats.barrierRounds, 9);
    EXPECT_EQ(stats.newtonSteps, 86);
}

TEST(InteriorPoint, StaysFeasible)
{
    Quadratic obj({1.0, 2.0, 3.0}, {0.5, 0.5, 0.5});
    const double budget = 1.0;
    const auto b = maximizeOnSimplex(obj, budget);
    double total = 0.0;
    for (double v : b) {
        EXPECT_GT(v, 0.0);
        total += v;
    }
    EXPECT_LE(total, budget + 1e-9);
}

TEST(InteriorPoint, ReportsStats)
{
    Quadratic obj({4.0}, {2.0});
    InteriorPointStats stats;
    maximizeOnSimplex(obj, 10.0, {}, &stats);
    EXPECT_GT(stats.barrierRounds, 0);
    EXPECT_GT(stats.newtonSteps, 0);
    EXPECT_LE(stats.finalGap, InteriorPointOptions{}.tolerance);
}

TEST(InteriorPoint, ValidatesInputs)
{
    Quadratic empty({}, {});
    EXPECT_THROW(maximizeOnSimplex(empty, 1.0), FatalError);
    Quadratic obj({1.0}, {1.0});
    EXPECT_THROW(maximizeOnSimplex(obj, 0.0), FatalError);
}

TEST(InteriorPoint, RejectsANonPositiveOrNaNTolerance)
{
    // The stopping gap (m+1)/t is positive: a negative or NaN target
    // is never met, and 0 only once t has overflowed to infinity,
    // where the Newton step is NaN.
    Quadratic obj({4.0}, {2.0});
    for (const double tolerance : {-1.0, std::nan(""), 0.0}) {
        InteriorPointOptions opts;
        opts.tolerance = tolerance;
        EXPECT_THROW(maximizeOnSimplex(obj, 10.0, opts), FatalError)
            << tolerance;
    }
}

TEST(InteriorPoint, TighterToleranceImprovesAccuracy)
{
    Quadratic obj({4.0}, {2.0});
    InteriorPointOptions loose;
    loose.tolerance = 1e-3;
    InteriorPointOptions tight;
    tight.tolerance = 1e-10;
    const double err_loose =
        std::abs(maximizeOnSimplex(obj, 10.0, loose)[0] - 2.0);
    const double err_tight =
        std::abs(maximizeOnSimplex(obj, 10.0, tight)[0] - 2.0);
    EXPECT_LE(err_tight, err_loose + 1e-12);
}

} // namespace
} // namespace amdahl::solver
