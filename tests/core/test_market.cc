/**
 * @file
 * Unit tests for the Fisher market description and equilibrium
 * verification.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/bidding.hh"
#include "core/market.hh"

namespace amdahl::core {
namespace {

FisherMarket
aliceBobMarket()
{
    FisherMarket market({10.0, 10.0});
    market.addUser({"Alice", 1.0, {{0, 0.53, 1.0}, {1, 0.93, 1.0}}});
    market.addUser({"Bob", 1.0, {{0, 0.96, 1.0}, {1, 0.68, 1.0}}});
    return market;
}

TEST(Market, BasicAccessors)
{
    const auto market = aliceBobMarket();
    EXPECT_EQ(market.userCount(), 2u);
    EXPECT_EQ(market.serverCount(), 2u);
    EXPECT_DOUBLE_EQ(market.capacity(0), 10.0);
    EXPECT_DOUBLE_EQ(market.totalBudget(), 2.0);
    EXPECT_DOUBLE_EQ(market.totalCores(), 20.0);
    EXPECT_EQ(market.user(0).name, "Alice");
}

TEST(Market, EntitlementAccounting)
{
    FisherMarket market({12.0, 12.0, 12.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 3.0, {{1, 0.9, 1.0}, {2, 0.8, 1.0}}});
    EXPECT_DOUBLE_EQ(market.entitlementShare(0), 0.25);
    EXPECT_DOUBLE_EQ(market.entitlementShare(1), 0.75);
    EXPECT_DOUBLE_EQ(market.entitledCores(0), 9.0);
    EXPECT_DOUBLE_EQ(market.entitledCores(1), 27.0);
    EXPECT_DOUBLE_EQ(market.entitledCoresOnServer(0, 2), 3.0);
}

TEST(Market, UtilityOfBuildsFromJobs)
{
    const auto market = aliceBobMarket();
    const auto u = market.utilityOf(0);
    EXPECT_EQ(u.size(), 2u);
    EXPECT_DOUBLE_EQ(u.term(0).parallelFraction, 0.53);
    EXPECT_DOUBLE_EQ(u.term(1).parallelFraction, 0.93);
}

TEST(Market, ValidatesConstruction)
{
    EXPECT_THROW(FisherMarket({}), FatalError);
    EXPECT_THROW(FisherMarket({0.0}), FatalError);
    EXPECT_THROW(FisherMarket({-2.0}), FatalError);
}

TEST(Market, ValidatesUsers)
{
    FisherMarket market({10.0});
    EXPECT_THROW(market.addUser({"x", 0.0, {{0, 0.5, 1.0}}}),
                 FatalError);
    EXPECT_THROW(market.addUser({"x", 1.0, {}}), FatalError);
    EXPECT_THROW(market.addUser({"x", 1.0, {{1, 0.5, 1.0}}}),
                 FatalError);
    EXPECT_THROW(market.addUser({"x", 1.0, {{0, 1.5, 1.0}}}),
                 FatalError);
    EXPECT_THROW(market.addUser({"x", 1.0, {{0, 0.5, 0.0}}}),
                 FatalError);
}

TEST(Market, ValidateRejectsEmptyAndBidderlessServers)
{
    FisherMarket empty({10.0});
    EXPECT_THROW(empty.validate(), FatalError);

    FisherMarket orphan({10.0, 10.0});
    orphan.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    EXPECT_THROW(orphan.validate(), FatalError);

    FisherMarket ok({10.0, 10.0});
    ok.addUser({"a", 1.0, {{0, 0.9, 1.0}, {1, 0.8, 1.0}}});
    EXPECT_NO_THROW(ok.validate());
}

TEST(Market, OutcomeHelpers)
{
    const auto market = aliceBobMarket();
    MarketOutcome outcome;
    outcome.allocation = {{1.0, 9.0}, {9.0, 1.0}};
    EXPECT_DOUBLE_EQ(outcome.userCores(0), 10.0);
    EXPECT_EQ(outcome.serverLoads(market),
              (std::vector<double>{10.0, 10.0}));
    EXPECT_THROW(outcome.userCores(5), FatalError);
}

TEST(Market, VerifyAcceptsTrueEquilibrium)
{
    const auto market = aliceBobMarket();
    BiddingOptions opts;
    opts.priceTolerance = 1e-12;
    const auto result = solveAmdahlBidding(market, opts);
    const auto check = verifyEquilibrium(market, result);
    EXPECT_TRUE(check.pass(1e-6));
}

TEST(Market, VerifyRejectsNonClearingAllocation)
{
    const auto market = aliceBobMarket();
    BiddingOptions opts;
    opts.priceTolerance = 1e-12;
    auto result = solveAmdahlBidding(market, opts);
    result.allocation[0][0] *= 0.5; // Break market clearing.
    const auto check = verifyEquilibrium(market, result);
    EXPECT_FALSE(check.pass(1e-6));
    EXPECT_GT(check.maxClearingResidual, 1e-3);
}

TEST(Market, VerifyRejectsSuboptimalAllocation)
{
    const auto market = aliceBobMarket();
    BiddingOptions opts;
    opts.priceTolerance = 1e-12;
    auto result = solveAmdahlBidding(market, opts);
    // Swap Alice's allocations: still feasible and budget-exhausting if
    // prices were equal, but strictly worse for her utility.
    std::swap(result.allocation[0][0], result.allocation[0][1]);
    std::swap(result.allocation[1][0], result.allocation[1][1]);
    const auto check = verifyEquilibrium(market, result);
    EXPECT_GT(check.maxOptimalityGap, 0.01);
}

TEST(Market, VerifyChecksShapes)
{
    const auto market = aliceBobMarket();
    MarketOutcome outcome;
    outcome.prices = {0.1};
    EXPECT_THROW(verifyEquilibrium(market, outcome), FatalError);
}

} // namespace
} // namespace amdahl::core
