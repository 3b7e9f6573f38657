/**
 * @file
 * End-to-end tests for degenerate profiling inputs: single-point
 * curves, sub-serial speedups, non-monotone dips, and parallel
 * fractions of exactly 0 and 1 must flow through Karp-Flatt, the
 * predictor, and market clearing without ever producing NaN or Inf.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "common/invariants.hh"
#include "core/bidding.hh"
#include "core/market.hh"
#include "profiling/karp_flatt.hh"
#include "profiling/predictor.hh"
#include "profiling/profiler.hh"

namespace amdahl::profiling {
namespace {

/** Hand-build a grid profile from a T(dataset, cores) function. */
WorkloadProfile
makeProfile(std::vector<int> cores, std::vector<double> datasets,
            const std::function<double(double, int)> &seconds)
{
    WorkloadProfile profile;
    profile.workloadName = "synthetic";
    profile.coreCounts = std::move(cores);
    profile.datasetsGB = std::move(datasets);
    for (double gb : profile.datasetsGB) {
        for (int x : profile.coreCounts)
            profile.points.push_back({gb, x, seconds(gb, x)});
    }
    return profile;
}

/** Solve a one-server market holding a single job with fraction f and
 *  assert the outcome is finite and feasible. */
core::BiddingResult
clearWithFraction(double f)
{
    core::FisherMarket market({16.0});
    core::MarketUser user;
    user.name = "degenerate";
    user.budget = 1.0;
    user.jobs.push_back({0, f, 1.0});
    market.addUser(std::move(user));
    core::MarketUser peer;
    peer.name = "peer";
    peer.budget = 1.0;
    peer.jobs.push_back({0, 0.5, 1.0});
    market.addUser(std::move(peer));

    const auto outcome = core::solveAmdahlBidding(market);
    invariants::CheckMarketState(outcome.prices, outcome.bids,
                                 "degenerate clearing");
    std::vector<double> loads(market.serverCount(), 0.0);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        for (std::size_t k = 0; k < market.user(i).jobs.size(); ++k)
            loads[market.user(i).jobs[k].server] +=
                outcome.allocation[i][k];
    }
    invariants::CheckAllocationFeasible(loads, market.capacities(),
                                        1e-6, "degenerate clearing");
    return outcome;
}

TEST(DegenerateProfiles, SinglePointCurveEstimatesFiniteFraction)
{
    // Only one core count above 1: Karp-Flatt has a single sample, so
    // the variance is zero and the estimate is that one F(x).
    const auto profile = makeProfile(
        {1, 8}, {4.0}, [](double, int x) {
            return 10.0 * (0.25 + 0.75 / static_cast<double>(x));
        });
    const auto est = estimateFraction(profile, 4.0);
    ASSERT_EQ(est.fractions.size(), 1u);
    EXPECT_TRUE(std::isfinite(est.expected));
    EXPECT_DOUBLE_EQ(est.variance, 0.0);
    EXPECT_DOUBLE_EQ(est.medianF, est.expected);
    EXPECT_NEAR(est.expected, 0.75, 1e-9);
}

TEST(DegenerateProfiles, SubSerialSpeedupsClampNotExplode)
{
    // More cores make it *slower* (s(x) < 1 everywhere): the raw
    // Karp-Flatt estimate leaves [0, 1] but the pipeline clamps.
    const auto profile = makeProfile(
        {1, 2, 4, 8}, {4.0}, [](double, int x) {
            return 10.0 * (1.0 + 0.1 * static_cast<double>(x));
        });
    const auto est = estimateFraction(profile, 4.0);
    for (double f : est.fractions) {
        EXPECT_TRUE(std::isfinite(f));
        EXPECT_GE(f, minClampedFraction);
        EXPECT_LE(f, 1.0);
    }
    EXPECT_TRUE(std::isfinite(estimateFractionFromSamples(profile)));

    for (double s : profile.speedups(4.0))
        EXPECT_GT(s, 0.0); // s in (0,1) is legal
}

TEST(DegenerateProfiles, NonMonotoneCurveFlowsThroughPipeline)
{
    // A dip at 4 cores (contention) then recovery: estimates stay
    // finite.
    const auto profile = makeProfile(
        {1, 2, 4, 8}, {4.0}, [](double, int x) {
            if (x == 4)
                return 9.0; // slower than the 2-core run
            return 10.0 * (0.2 + 0.8 / static_cast<double>(x));
        });
    const auto est = estimateFraction(profile, 4.0);
    for (double f : est.fractions)
        EXPECT_TRUE(std::isfinite(f));
    EXPECT_TRUE(std::isfinite(est.medianF));
}

TEST(DegenerateProfiles, FlatCurveGivesSerialFractionAndClears)
{
    // Identical times at every core count: s(x) = 1, raw F = 0, the
    // clamp floors it, and the market still clears with that f.
    const auto profile = makeProfile(
        {1, 2, 4, 8}, {4.0}, [](double, int) { return 10.0; });
    const auto est = estimateFraction(profile, 4.0);
    for (double f : est.fractions)
        EXPECT_DOUBLE_EQ(f, minClampedFraction);
    const auto outcome = clearWithFraction(est.expected);
    EXPECT_TRUE(outcome.converged);
}

TEST(DegenerateProfiles, LinearCurveGivesPerfectFractionAndClears)
{
    // Perfect scaling: s(x) = x, F(x) = 1 exactly. The estimate must
    // be exactly 1 (not 1 + epsilon) and clearing must stay finite.
    const auto profile = makeProfile(
        {1, 2, 4, 8}, {4.0}, [](double, int x) {
            return 10.0 / static_cast<double>(x);
        });
    const auto est = estimateFraction(profile, 4.0);
    for (double f : est.fractions)
        EXPECT_DOUBLE_EQ(f, 1.0);
    const auto outcome = clearWithFraction(est.expected);
    EXPECT_TRUE(outcome.converged);
}

TEST(DegenerateProfiles, ExtremeFractionsClearDirectly)
{
    // f exactly 0 and exactly 1 are legal market inputs and must not
    // produce NaN prices or infeasible allocations.
    for (double f : {0.0, 1.0}) {
        const auto outcome = clearWithFraction(f);
        EXPECT_TRUE(outcome.converged) << "f = " << f;
        for (double p : outcome.prices)
            EXPECT_TRUE(std::isfinite(p) && p > 0.0) << "f = " << f;
    }
}

TEST(DegenerateProfiles, PredictorSurvivesDegenerateGrid)
{
    // Two datasets (the fit minimum) over a flat, sub-serial curve:
    // the fitted fraction and every prediction must be finite.
    const auto profile = makeProfile(
        {1, 2, 4}, {1.0, 2.0}, [](double gb, int x) {
            return gb * (5.0 + 0.2 * static_cast<double>(x));
        });
    const auto predictor = PerformancePredictor::fit(profile);
    EXPECT_TRUE(std::isfinite(predictor.parallelFraction()));
    EXPECT_GE(predictor.parallelFraction(), 0.0);
    EXPECT_LE(predictor.parallelFraction(), 1.0);
    for (int cores : {1, 2, 4, 16, 64}) {
        const double t = predictor.predictSeconds(3.0, cores);
        EXPECT_TRUE(std::isfinite(t)) << cores;
        EXPECT_GT(t, 0.0) << cores;
    }
}

TEST(DegenerateProfiles, SanitizedEstimateFeedsMarketEndToEnd)
{
    // The whole pipeline in one pass: a hostile profile (dip +
    // sub-serial point) is estimated, clamped by Karp-Flatt, and
    // cleared.
    const auto profile = makeProfile(
        {1, 2, 4, 8}, {4.0}, [](double, int x) {
            if (x == 4)
                return 12.0; // worse than serial
            return 10.0 * (0.3 + 0.7 / static_cast<double>(x));
        });
    const double f = estimateFraction(profile, 4.0).medianF;
    ASSERT_TRUE(std::isfinite(f));
    EXPECT_TRUE(clearWithFraction(f).converged);
}

} // namespace
} // namespace amdahl::profiling
