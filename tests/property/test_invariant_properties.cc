/**
 * @file
 * Property tests for the contract layer: every state the Amdahl
 * Bidding mechanism (and the policies built on it) actually produces
 * on randomized instances must satisfy the typed invariant checkers,
 * and hand-built violations must be rejected. This pins the contract
 * from both sides — the checkers are neither too strict (no false
 * alarms on real equilibria) nor vacuous (corrupted states fire).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/greedy.hh"
#include "alloc/proportional_share.hh"
#include "common/invariants.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/bidding.hh"
#include "core/rounding.hh"

namespace amdahl::core {
namespace {

/**
 * A random solvable market: 1-5 servers with integral capacities,
 * 2-10 users with 1-3 jobs each, every server guaranteed a bidder.
 */
FisherMarket
randomMarket(Rng &rng)
{
    const auto n = static_cast<std::size_t>(rng.uniformInt(2, 10));
    // m <= n so pinning user i's first job to server i % m covers
    // every server with a bidder (solvability).
    const auto m = static_cast<std::size_t>(rng.uniformInt(
        1, std::min<std::int64_t>(5, static_cast<std::int64_t>(n))));
    std::vector<double> capacities(m);
    for (auto &c : capacities)
        c = static_cast<double>(rng.uniformInt(4, 48));
    FisherMarket market(std::move(capacities));

    for (std::size_t i = 0; i < n; ++i) {
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.1, 5.0);
        const auto jobs = static_cast<std::size_t>(rng.uniformInt(1, 3));
        for (std::size_t k = 0; k < jobs; ++k) {
            const std::size_t server =
                k == 0 ? i % m
                       : static_cast<std::size_t>(rng.uniformInt(
                             0, static_cast<std::int64_t>(m) - 1));
            user.jobs.push_back(
                {server, rng.uniform(0.05, 0.999),
                 rng.uniform(0.2, 3.0)});
        }
        market.addUser(std::move(user));
    }
    return market;
}

std::vector<double>
budgetsOf(const FisherMarket &market)
{
    std::vector<double> budgets(market.userCount());
    for (std::size_t i = 0; i < market.userCount(); ++i)
        budgets[i] = market.user(i).budget;
    return budgets;
}

std::vector<double>
serverLoads(const FisherMarket &market,
            const std::vector<std::vector<double>> &allocation)
{
    std::vector<double> loads(market.serverCount(), 0.0);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k)
            loads[jobs[k].server] += allocation[i][k];
    }
    return loads;
}

TEST(InvariantProperty, BiddingStatesSatisfyEveryChecker)
{
    Rng rng(0xC0FFEE);
    for (int trial = 0; trial < 60; ++trial) {
        const auto market = randomMarket(rng);
        BiddingOptions opts;
        opts.priceTolerance = 1e-8;
        opts.maxIterations = 100000;
        if (trial % 3 == 0)
            opts.damping = 0.7;
        const auto r = solveAmdahlBidding(market, opts);
        ASSERT_TRUE(r.converged) << "trial " << trial;

        // The solved state satisfies every contract the hot path
        // asserts under AMDAHL_CHECKED.
        EXPECT_NO_THROW(invariants::CheckMarketState(
            r.prices, r.bids, "property"));
        EXPECT_NO_THROW(invariants::CheckBidBudgets(
            r.bids, budgetsOf(market), 1e-9, "property"));
        EXPECT_NO_THROW(invariants::CheckAllocationFeasible(
            serverLoads(market, r.allocation), market.capacities(),
            1e-6, "property"));
        for (std::size_t i = 0; i < market.userCount(); ++i) {
            for (const auto &job : market.user(i).jobs) {
                EXPECT_NO_THROW(invariants::CheckParallelFraction(
                    job.parallelFraction, "property"));
            }
        }
    }
}

TEST(InvariantProperty, PolicyOutputsPassTheAudit)
{
    // auditAllocation (active under AMDAHL_CHECKED inside the policy)
    // must accept what the policies produce on random instances; here
    // it runs explicitly so unchecked builds cover it too.
    Rng rng(0xFA1F);
    for (int trial = 0; trial < 15; ++trial) {
        const auto market = randomMarket(rng);
        const alloc::AmdahlBiddingPolicy bidding;
        const alloc::GreedyPolicy greedy;
        const alloc::ProportionalShare ps;
        for (const alloc::AllocationPolicy *policy :
             {static_cast<const alloc::AllocationPolicy *>(&bidding),
              static_cast<const alloc::AllocationPolicy *>(&greedy),
              static_cast<const alloc::AllocationPolicy *>(&ps)}) {
            const auto result = policy->allocate(market);
            EXPECT_NO_THROW(alloc::auditAllocation(market, result))
                << result.policyName << " trial " << trial;
        }
    }
}

TEST(InvariantProperty, RoundedOutcomesStayFeasible)
{
    Rng rng(0xBEEF);
    for (int trial = 0; trial < 20; ++trial) {
        const auto market = randomMarket(rng);
        BiddingOptions opts;
        opts.priceTolerance = 1e-8;
        opts.maxIterations = 100000;
        const auto r = solveAmdahlBidding(market, opts);
        ASSERT_TRUE(r.converged);
        const auto cores = roundOutcome(market, r);
        std::vector<std::vector<double>> integral(cores.size());
        for (std::size_t i = 0; i < cores.size(); ++i) {
            integral[i].assign(cores[i].begin(), cores[i].end());
        }
        EXPECT_NO_THROW(invariants::CheckAllocationFeasible(
            serverLoads(market, integral), market.capacities(), 1e-9,
            "property"));
    }
}

TEST(InvariantProperty, HandBuiltViolationsAreRejected)
{
    Rng rng(0xD00D);
    const auto market = randomMarket(rng);
    BiddingOptions opts;
    opts.priceTolerance = 1e-8;
    opts.maxIterations = 100000;
    auto r = solveAmdahlBidding(market, opts);
    ASSERT_TRUE(r.converged);

    // Corrupt one field at a time; the matching checker must fire.
    {
        auto broken = r.prices;
        broken[0] = 0.0;
        EXPECT_THROW(invariants::CheckMarketState(broken, r.bids,
                                                  "property"),
                     PanicError);
        broken[0] = std::numeric_limits<double>::quiet_NaN();
        EXPECT_THROW(invariants::CheckMarketState(broken, r.bids,
                                                  "property"),
                     PanicError);
    }
    {
        auto broken = r.bids;
        broken[0][0] = -1e-3;
        EXPECT_THROW(invariants::CheckMarketState(r.prices, broken,
                                                  "property"),
                     PanicError);
        EXPECT_THROW(invariants::CheckBidBudgets(broken,
                                                 budgetsOf(market),
                                                 1e-9, "property"),
                     PanicError);
    }
    {
        // Steal budget: scale one user's bids down by half.
        auto broken = r.bids;
        for (double &b : broken[0])
            b *= 0.5;
        EXPECT_THROW(invariants::CheckBidBudgets(broken,
                                                 budgetsOf(market),
                                                 1e-9, "property"),
                     PanicError);
    }
    {
        // Over-subscribe a server by doubling one allocation row.
        auto broken = r.allocation;
        for (double &x : broken[0])
            x *= 2.0;
        auto loads = serverLoads(market, broken);
        bool overloaded = false;
        for (std::size_t j = 0; j < loads.size(); ++j)
            overloaded |= loads[j] > market.capacity(j) * (1.0 + 1e-6);
        if (overloaded) {
            EXPECT_THROW(invariants::CheckAllocationFeasible(
                             loads, market.capacities(), 1e-6,
                             "property"),
                         PanicError);
        }
    }
}

} // namespace
} // namespace amdahl::core
