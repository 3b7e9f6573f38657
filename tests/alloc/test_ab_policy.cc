/**
 * @file
 * Unit tests for the Amdahl Bidding policy adapter.
 */

#include <gtest/gtest.h>

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/policy.hh"
#include "common/logging.hh"

namespace amdahl::alloc {
namespace {

core::FisherMarket
aliceBobMarket()
{
    core::FisherMarket market({10.0, 10.0});
    market.addUser({"Alice", 1.0, {{0, 0.53, 1.0}, {1, 0.93, 1.0}}});
    market.addUser({"Bob", 1.0, {{0, 0.96, 1.0}, {1, 0.68, 1.0}}});
    return market;
}

TEST(AmdahlBiddingPolicy, ProducesRoundedEquilibrium)
{
    const AmdahlBiddingPolicy ab;
    const auto result = ab.allocate(aliceBobMarket());
    EXPECT_EQ(result.policyName, "AB");
    EXPECT_TRUE(result.outcome.converged);
    // Fractional equilibrium (1.34, 8.68)/(8.66, 1.32) rounds to
    // (1, 9)/(9, 1).
    EXPECT_EQ(result.cores[0], (std::vector<int>{1, 9}));
    EXPECT_EQ(result.cores[1], (std::vector<int>{9, 1}));
}

TEST(AmdahlBiddingPolicy, PricesAreReported)
{
    const AmdahlBiddingPolicy ab;
    const auto result = ab.allocate(aliceBobMarket());
    ASSERT_EQ(result.outcome.prices.size(), 2u);
    EXPECT_NEAR(result.outcome.prices[0], 0.100, 0.002);
    EXPECT_NEAR(result.outcome.prices[1], 0.099, 0.002);
}

TEST(AmdahlBiddingPolicy, OptionsArePassedThrough)
{
    core::BiddingOptions opts;
    opts.maxIterations = 1;
    opts.priceTolerance = 1e-15;
    const AmdahlBiddingPolicy ab(opts);
    const auto result = ab.allocate(aliceBobMarket());
    EXPECT_FALSE(result.outcome.converged);
    EXPECT_EQ(result.outcome.iterations, 1);
}

TEST(AmdahlBiddingPolicy, UserCoresHelper)
{
    const AmdahlBiddingPolicy ab;
    const auto result = ab.allocate(aliceBobMarket());
    EXPECT_EQ(result.userCores(0), 10);
    EXPECT_EQ(result.userCores(1), 10);
}

TEST(ServerJobIndex, LocatesJobs)
{
    const auto market = aliceBobMarket();
    const core::ServerJobIndex index(market);
    ASSERT_EQ(index.serverCount(), 2u);
    const auto on0 = index.jobsOn(0);
    ASSERT_EQ(on0.size(), 2u);
    EXPECT_EQ(on0[0], (core::JobRef{0, 0}));
    EXPECT_EQ(on0[1], (core::JobRef{1, 0}));
}

} // namespace
} // namespace amdahl::alloc
