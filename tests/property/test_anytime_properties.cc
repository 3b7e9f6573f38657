/**
 * @file
 * Property tests of deadline-bounded (anytime) clearing.
 *
 * The contract under test: whenever an anytime deadline fires — even
 * on iteration 1 — the returned state is budget-feasible. Prices are
 * finite and strictly positive, each user's spend equals her budget
 * (bids are renormalized every round), and x = b / p clears each
 * server exactly, so grants never exceed live capacity. And with the
 * deadline disabled, the solve path is bit-identical to one that has
 * never heard of deadlines.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/bidding.hh"

namespace amdahl::core {
namespace {

struct AnytimeCase
{
    std::uint64_t seed;
    int users;
    int servers;
    int iterationBudget;
};

void
PrintTo(const AnytimeCase &c, std::ostream *os)
{
    *os << "seed" << c.seed << "_u" << c.users << "_s" << c.servers
        << "_it" << c.iterationBudget;
}

FisherMarket
randomMarket(std::uint64_t seed, int users, int servers)
{
    Rng rng(seed);
    FisherMarket market(std::vector<double>(
        static_cast<std::size_t>(servers), 16.0));
    for (int i = 0; i < users; ++i) {
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.5, 4.0);
        const int jobs = static_cast<int>(rng.uniformInt(1, 3));
        for (int k = 0; k < jobs; ++k) {
            user.jobs.push_back(
                {static_cast<std::size_t>(
                     rng.uniformInt(0, servers - 1)),
                 rng.uniform(0.05, 0.999), rng.uniform(0.5, 2.0)});
        }
        market.addUser(std::move(user));
    }
    for (int j = 0; j < servers; ++j) {
        MarketUser anchor;
        anchor.name = "anchor" + std::to_string(j);
        anchor.budget = 1.0;
        anchor.jobs.push_back(
            {static_cast<std::size_t>(j), rng.uniform(0.3, 0.99), 1.0});
        market.addUser(std::move(anchor));
    }
    return market;
}

/** Assert the full feasibility contract on an anytime outcome. */
void
expectBudgetFeasible(const FisherMarket &market,
                     const BiddingResult &result)
{
    ASSERT_EQ(result.prices.size(), market.serverCount());
    for (double p : result.prices) {
        EXPECT_TRUE(std::isfinite(p));
        EXPECT_GT(p, 0.0);
    }
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        double spent = 0.0;
        for (double b : result.bids[i]) {
            EXPECT_TRUE(std::isfinite(b));
            EXPECT_GE(b, 0.0);
            spent += b;
        }
        // Renormalization makes spend *equal* the budget, which is the
        // strongest form of "spend never exceeds budget".
        EXPECT_NEAR(spent, market.user(i).budget,
                    1e-9 * market.user(i).budget);
    }
    const auto loads = result.serverLoads(market);
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        const double load = loads[j];
        EXPECT_TRUE(std::isfinite(load));
        EXPECT_LE(load, market.capacity(j) * (1.0 + 1e-9));
    }
}

class AnytimeProperty : public ::testing::TestWithParam<AnytimeCase>
{
};

TEST_P(AnytimeProperty, ExpiredStateIsBudgetFeasible)
{
    const auto &c = GetParam();
    const auto market = randomMarket(c.seed, c.users, c.servers);
    BiddingOptions opts;
    opts.deadline.iterationBudget = c.iterationBudget;
    const auto result = solveAmdahlBidding(market, opts);
    // These markets need far more rounds than the budget allows, so
    // the deadline always fires; the state must still be feasible.
    ASSERT_TRUE(result.deadlineExpired);
    EXPECT_FALSE(result.converged);
    EXPECT_LE(result.iterations, c.iterationBudget);
    expectBudgetFeasible(market, result);
}

TEST_P(AnytimeProperty, DisabledDeadlineIsBitIdentical)
{
    const auto &c = GetParam();
    const auto market = randomMarket(c.seed, c.users, c.servers);
    const auto plain = solveAmdahlBidding(market, {});
    BiddingOptions armed_but_default;
    armed_but_default.deadline = DeadlineOptions{};
    const auto same = solveAmdahlBidding(market, armed_but_default);
    EXPECT_FALSE(plain.deadlineExpired);
    EXPECT_EQ(plain.iterations, same.iterations);
    EXPECT_EQ(plain.prices, same.prices);   // bitwise, not approximate
    EXPECT_EQ(plain.bids, same.bids);
    EXPECT_EQ(plain.allocation, same.allocation);
    EXPECT_EQ(plain.elapsedSeconds, 0.0);   // clock never read
}

TEST_P(AnytimeProperty, GenerousBudgetConvergesUnflagged)
{
    const auto &c = GetParam();
    const auto market = randomMarket(c.seed, c.users, c.servers);
    BiddingOptions opts;
    opts.deadline.iterationBudget = opts.maxIterations;
    const auto result = solveAmdahlBidding(market, opts);
    ASSERT_TRUE(result.converged);
    EXPECT_FALSE(result.deadlineExpired);

    // Converging under an armed-but-unreached deadline matches the
    // deadline-free solve exactly.
    const auto plain = solveAmdahlBidding(market, {});
    EXPECT_EQ(plain.prices, result.prices);
    EXPECT_EQ(plain.bids, result.bids);
}

INSTANTIATE_TEST_SUITE_P(
    RandomMarkets, AnytimeProperty,
    ::testing::Values(AnytimeCase{1, 4, 2, 1},
                      AnytimeCase{2, 8, 3, 1},
                      AnytimeCase{3, 16, 4, 1},
                      AnytimeCase{4, 6, 2, 2},
                      AnytimeCase{5, 12, 5, 3},
                      AnytimeCase{6, 24, 6, 5},
                      AnytimeCase{7, 10, 4, 10},
                      AnytimeCase{8, 32, 8, 1}),
    ::testing::PrintToStringParamName());

TEST(AnytimeDeadline, WallClockDeadlineStillFeasible)
{
    // Wall-clock expiry is machine-dependent, so only the feasibility
    // contract is asserted — whichever way the race goes.
    const auto market = randomMarket(42, 16, 4);
    BiddingOptions opts;
    opts.deadline.wallClockSeconds = 1e-9;
    const auto result = solveAmdahlBidding(market, opts);
    EXPECT_TRUE(result.deadlineExpired || result.converged);
    EXPECT_GE(result.elapsedSeconds, 0.0);
    expectBudgetFeasible(market, result);
}

TEST(AnytimeDeadline, InvalidDeadlinesThrow)
{
    const auto market = randomMarket(7, 4, 2);
    BiddingOptions opts;
    opts.deadline.wallClockSeconds = -1.0;
    EXPECT_THROW(solveAmdahlBidding(market, opts), FatalError);
    opts.deadline.wallClockSeconds =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(solveAmdahlBidding(market, opts), FatalError);
    opts = {};
    opts.deadline.iterationBudget = -3;
    EXPECT_THROW(solveAmdahlBidding(market, opts), FatalError);
}

} // namespace
} // namespace amdahl::core
