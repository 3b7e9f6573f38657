/**
 * @file
 * Stress tests: degenerate and extreme markets the mechanism must
 * survive — monopolies, extreme budget ratios, near-serial job mixes,
 * heavily colocated jobs, and large single-server crowds.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "core/bidding.hh"
#include "core/rounding.hh"

namespace amdahl::core {
namespace {

BiddingOptions
tightOptions()
{
    BiddingOptions opts;
    opts.priceTolerance = 1e-8;
    opts.maxIterations = 200000;
    return opts;
}

TEST(MarketStress, ExtremeBudgetRatios)
{
    // A whale with a million times the minnow's budget: both still
    // get valid allocations and the whale dominates proportionally.
    FisherMarket market({24.0});
    market.addUser({"minnow", 1e-3, {{0, 0.9, 1.0}}});
    market.addUser({"whale", 1e3, {{0, 0.9, 1.0}}});
    const auto r = solveAmdahlBidding(market, tightOptions());
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.allocation[0][0] + r.allocation[1][0], 24.0, 1e-6);
    EXPECT_NEAR(r.allocation[1][0] / r.allocation[0][0], 1e6, 1e2);
}

TEST(MarketStress, NearSerialCrowd)
{
    // Everyone nearly serial: allocations exist, and the rounding
    // still exactly covers the server.
    FisherMarket market({24.0});
    for (int i = 0; i < 6; ++i) {
        market.addUser({"u" + std::to_string(i), 1.0,
                        {{0, 0.02 + 0.001 * i, 1.0}}});
    }
    const auto r = solveAmdahlBidding(market, tightOptions());
    ASSERT_TRUE(r.converged);
    const auto rounded = roundOutcome(market, r);
    int total = 0;
    for (const auto &row : rounded)
        total += row[0];
    EXPECT_EQ(total, 24);
}

TEST(MarketStress, SingleServerAllocatesByBudgetNotParallelism)
{
    // With a single server and one job each, users have nowhere to
    // shift budget, so equal budgets mean equal shares *regardless*
    // of parallelism — the entitlement guarantee in its purest form.
    // (A Greedy policy would starve the serial user here; the market
    // never does. Parallelism moves allocations only when users can
    // trade across servers.)
    FisherMarket market({24.0});
    market.addUser({"serial", 1.0, {{0, 0.01, 1.0}}});
    market.addUser({"linear", 1.0, {{0, 0.999, 1.0}}});
    const auto r = solveAmdahlBidding(market, tightOptions());
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.allocation[0][0], 12.0, 1e-6);
    EXPECT_NEAR(r.allocation[1][0], 12.0, 1e-6);
}

TEST(MarketStress, ParallelismMattersOnlyWithTradingRoom)
{
    // The same two jobs plus a second server where both users also
    // run: now the serial user shifts budget to her other job and the
    // parallel user picks up the slack — allocations diverge.
    FisherMarket market({24.0, 24.0});
    market.addUser({"serial", 1.0,
                    {{0, 0.01, 1.0}, {1, 0.95, 1.0}}});
    market.addUser({"linear", 1.0,
                    {{0, 0.999, 1.0}, {1, 0.95, 1.0}}});
    const auto r = solveAmdahlBidding(market, tightOptions());
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.allocation[1][0], r.allocation[0][0] + 1.0);
}

TEST(MarketStress, ManyJobsOfOneUserOnOneServer)
{
    // One user floods a server with 20 jobs while a rival runs one:
    // the flood gains no aggregate advantage (entitlements are per
    // user).
    FisherMarket market({24.0});
    MarketUser flooder{"flood", 1.0, {}};
    for (int k = 0; k < 20; ++k)
        flooder.jobs.push_back({0, 0.9, 1.0});
    market.addUser(std::move(flooder));
    market.addUser({"single", 1.0, {{0, 0.9, 1.0}}});
    const auto r = solveAmdahlBidding(market, tightOptions());
    ASSERT_TRUE(r.converged);
    // The flooder's 20 jobs split her half; they do not crowd out the
    // rival. (Utility normalization makes the split exactly even.)
    EXPECT_NEAR(r.userCores(0), 12.0, 0.5);
    EXPECT_NEAR(r.allocation[1][0], 12.0, 0.5);
}

TEST(MarketStress, LargeSingleServerCrowd)
{
    // 200 users on one 24-core server: fractional cores everywhere,
    // but clearing and rounding hold exactly.
    Rng rng(0xc0de);
    FisherMarket market({24.0});
    for (int i = 0; i < 200; ++i) {
        market.addUser({"u" + std::to_string(i),
                        static_cast<double>(rng.uniformInt(1, 5)),
                        {{0, rng.uniform(0.5, 0.99), 1.0}}});
    }
    const auto r = solveAmdahlBidding(market, tightOptions());
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.serverLoads(market)[0], 24.0, 1e-5);
    const auto rounded = roundOutcome(market, r);
    int total = 0;
    for (const auto &row : rounded)
        total += row[0];
    EXPECT_EQ(total, 24);
}

TEST(MarketStress, WideClusterSparseUsers)
{
    // 40 servers, each with exactly one (different) user: every user
    // is a monopolist; prices settle and each takes her server.
    FisherMarket market(std::vector<double>(40, 12.0));
    for (int j = 0; j < 40; ++j) {
        market.addUser({"u" + std::to_string(j), 1.0,
                        {{static_cast<std::size_t>(j), 0.9, 1.0}}});
    }
    const auto r = solveAmdahlBidding(market, tightOptions());
    ASSERT_TRUE(r.converged);
    for (int j = 0; j < 40; ++j)
        EXPECT_NEAR(r.allocation[static_cast<std::size_t>(j)][0], 12.0,
                    1e-6);
}

TEST(MarketStress, TinyCapacityServer)
{
    // A 1-core server shared by three users still clears; rounding
    // gives the core to exactly one of them.
    FisherMarket market({1.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 1.0, {{0, 0.8, 1.0}}});
    market.addUser({"c", 2.0, {{0, 0.7, 1.0}}});
    const auto r = solveAmdahlBidding(market, tightOptions());
    ASSERT_TRUE(r.converged);
    const auto rounded = roundOutcome(market, r);
    int total = 0, winners = 0;
    for (const auto &row : rounded) {
        total += row[0];
        winners += row[0] > 0;
    }
    EXPECT_EQ(total, 1);
    EXPECT_EQ(winners, 1);
}

} // namespace
} // namespace amdahl::core
