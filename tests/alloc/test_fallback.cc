/**
 * @file
 * Unit tests for the degraded-mode fallback ladder.
 */

#include <gtest/gtest.h>

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/fallback_policy.hh"
#include "alloc/proportional_share.hh"
#include "common/logging.hh"
#include "core/bidding.hh"

namespace amdahl::alloc {
namespace {

core::FisherMarket
smallMarket()
{
    core::FisherMarket market({24.0, 24.0});
    market.addUser({"a", 3.0, {{0, 0.95, 1.0}, {1, 0.60, 1.0}}});
    market.addUser({"b", 1.0, {{0, 0.85, 1.0}}});
    market.addUser({"c", 2.0, {{1, 0.99, 1.0}, {0, 0.30, 1.0}}});
    return market;
}

TEST(Fallback, PrimaryServesConvergingMarkets)
{
    const auto market = smallMarket();
    const FallbackPolicy fb;
    const auto result = fb.allocate(market);
    EXPECT_EQ(result.mode, ServeMode::Primary);
    EXPECT_TRUE(result.outcome.converged);
    EXPECT_EQ(result.policyName, "AB+FB");

    // Identical to the unwrapped policy under the same options.
    const AmdahlBiddingPolicy ab;
    const auto plain = ab.allocate(market);
    ASSERT_EQ(result.cores.size(), plain.cores.size());
    for (std::size_t i = 0; i < result.cores.size(); ++i)
        EXPECT_EQ(result.cores[i], plain.cores[i]);
}

TEST(Fallback, DampedRetryRescuesTightIterationBudget)
{
    const auto market = smallMarket();
    core::BiddingOptions primary;
    primary.maxIterations = 2;
    primary.priceTolerance = 1e-12;
    FallbackOptions ladder;
    ladder.retryMaxIterations = 20000;
    const FallbackPolicy fb(primary, ladder);
    const auto result = fb.allocate(market);
    EXPECT_EQ(result.mode, ServeMode::DampedRetry);
    EXPECT_TRUE(result.outcome.converged);
    // Iterations accumulate across rungs.
    EXPECT_GT(result.outcome.iterations, 2);
}

TEST(Fallback, ProportionalFallbackWhenBothMarketAttemptsFail)
{
    const auto market = smallMarket();
    core::BiddingOptions primary;
    primary.maxIterations = 2;
    primary.priceTolerance = 1e-15;
    FallbackOptions ladder;
    ladder.retryMaxIterations = 3;
    const FallbackPolicy fb(primary, ladder);
    const auto result = fb.allocate(market);
    EXPECT_EQ(result.mode, ServeMode::ProportionalFallback);
    EXPECT_FALSE(result.outcome.converged);
    EXPECT_EQ(result.outcome.iterations, 5);
    EXPECT_EQ(result.policyName, "AB+FB");

    // The emergency allocation is exactly proportional share by
    // entitlement: feasible and budget-respecting.
    const auto ps = ProportionalShare().allocate(market);
    ASSERT_EQ(result.cores.size(), ps.cores.size());
    for (std::size_t i = 0; i < result.cores.size(); ++i)
        EXPECT_EQ(result.cores[i], ps.cores[i]);
    std::vector<int> perServer(2, 0);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        for (std::size_t k = 0; k < market.user(i).jobs.size(); ++k) {
            perServer[market.user(i).jobs[k].server] +=
                result.cores[i][k];
        }
    }
    EXPECT_LE(perServer[0], 24);
    EXPECT_LE(perServer[1], 24);
}

TEST(Fallback, TotalMessageLossFallsThroughToProportional)
{
    const auto market = smallMarket();
    core::BiddingOptions primary;
    primary.maxIterations = 200;
    FallbackOptions ladder;
    ladder.retryMaxIterations = 200;
    const FallbackPolicy fb(primary, ladder);
    core::BidTransportFaults transport;
    transport.lossRate = 1.0; // nothing ever reaches the coordinator
    transport.seed = 99;
    const auto result = fb.allocate(market, transport);
    EXPECT_EQ(result.mode, ServeMode::ProportionalFallback);
    EXPECT_FALSE(result.outcome.converged);
}

TEST(Fallback, ServeModeNames)
{
    EXPECT_STREQ(toString(ServeMode::Primary), "primary");
    EXPECT_STREQ(toString(ServeMode::DampedRetry), "damped-retry");
    EXPECT_STREQ(toString(ServeMode::ProportionalFallback),
                 "proportional-fallback");
}

TEST(Fallback, ValidatesOptions)
{
    FallbackOptions bad;
    bad.retryMaxIterations = -1;
    EXPECT_THROW(FallbackPolicy({}, bad), FatalError);
}

} // namespace
} // namespace amdahl::alloc
