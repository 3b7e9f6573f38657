/**
 * @file
 * Unit tests for the price-anticipating Best Response (BR) baseline.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "alloc/best_response.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/amdahl.hh"
#include "core/bidding.hh"

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

TEST(BestResponse, ConvergesAndClearsServers)
{
    const auto market = aliceBobMarket();
    const BestResponsePolicy br;
    const auto result = br.allocate(market);
    EXPECT_TRUE(result.outcome.converged);
    const auto loads = result.outcome.serverLoads(market);
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        EXPECT_NEAR(loads[j], 10.0, 1e-6)
            << "server " << j;
    }
}

TEST(BestResponse, NashAllocationNearFisherInSmallMarket)
{
    // With two users the Nash and Fisher equilibria differ but remain
    // qualitatively aligned: each user still concentrates on the
    // server with more parallelism.
    const auto market = aliceBobMarket();
    const auto nash = BestResponsePolicy().allocate(market);
    EXPECT_GT(nash.outcome.allocation[0][1],
              nash.outcome.allocation[0][0]);
    EXPECT_GT(nash.outcome.allocation[1][0],
              nash.outcome.allocation[1][1]);
}

TEST(BestResponse, NoUserBenefitsFromDeviating)
{
    // Nash property: any unilateral bid rebalancing must not raise a
    // user's utility.
    const auto market = aliceBobMarket();
    const auto result = BestResponsePolicy().allocate(market);

    for (std::size_t i = 0; i < 2; ++i) {
        const auto &user = market.user(i);
        // Opposing bids on each of the user's jobs' servers.
        std::vector<double> opposing(user.jobs.size(), 0.0);
        for (std::size_t k = 0; k < user.jobs.size(); ++k) {
            const std::size_t other = 1 - i;
            for (std::size_t k2 = 0;
                 k2 < market.user(other).jobs.size(); ++k2) {
                if (market.user(other).jobs[k2].server ==
                    user.jobs[k].server) {
                    opposing[k] += result.outcome.bids[other][k2];
                }
            }
        }
        auto utility = [&](const std::vector<double> &bids) {
            double total = 0.0;
            for (std::size_t k = 0; k < user.jobs.size(); ++k) {
                const double cap =
                    market.capacity(user.jobs[k].server);
                const double x =
                    cap * bids[k] / (opposing[k] + bids[k]);
                total += core::amdahlSpeedup(
                    user.jobs[k].parallelFraction, x);
            }
            return total;
        };
        const double equilibrium_utility =
            utility(result.outcome.bids[i]);
        for (double shift : {-0.2, -0.05, 0.05, 0.2}) {
            auto deviated = result.outcome.bids[i];
            deviated[0] += shift;
            deviated[1] -= shift;
            if (deviated[0] <= 0.0 || deviated[1] <= 0.0)
                continue;
            EXPECT_LE(utility(deviated), equilibrium_utility + 1e-4);
        }
    }
}

TEST(BestResponse, StrategicUsersHoldBackOnUncontestedServers)
{
    // A price-anticipating sole bidder on a server gets its full
    // capacity regardless of bid size, so she shifts budget to the
    // contested server (Section VI-D's discussion).
    core::FisherMarket market({10.0, 10.0});
    market.addUser({"solo", 1.0, {{0, 0.9, 1.0}, {1, 0.9, 1.0}}});
    market.addUser({"contender", 1.0, {{1, 0.9, 1.0}}});
    const auto nash = BestResponsePolicy().allocate(market);
    const auto fisher = core::solveAmdahlBidding(market);
    // Solo's bid on server 0 (uncontested) is tiny under BR.
    EXPECT_LT(nash.outcome.bids[0][0], 0.05);
    // But she still receives all of server 0.
    EXPECT_NEAR(nash.outcome.allocation[0][0], 10.0, 1e-6);
    // And her allocation on the contested server exceeds the
    // price-taking (Fisher) allocation.
    EXPECT_GT(nash.outcome.allocation[0][1],
              fisher.allocation[0][1] - 1e-6);
}

TEST(BestResponse, BudgetsAreRespected)
{
    const auto market = aliceBobMarket();
    const auto result = BestResponsePolicy().allocate(market);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        double spent = 0.0;
        for (double b : result.outcome.bids[i])
            spent += b;
        EXPECT_LE(spent, market.user(i).budget + 1e-6);
    }
}

TEST(BestResponse, RoundedAllocationPreservesCapacity)
{
    const auto market = aliceBobMarket();
    const auto result = BestResponsePolicy().allocate(market);
    std::vector<int> load(2, 0);
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k)
            load[jobs[k].server] += result.cores[i][k];
    }
    EXPECT_EQ(load[0], 10);
    EXPECT_EQ(load[1], 10);
}

TEST(BestResponse, BestResponseBidsValidatesShape)
{
    const core::MarketUser user{"u", 1.0, {{0, 0.9, 1.0}}};
    EXPECT_THROW(BestResponsePolicy::bestResponseBids(
                     user, {10.0}, {0.5, 0.5}),
                 FatalError);
}

TEST(BestResponse, SymmetricDuopolySplitsEvenly)
{
    core::FisherMarket market({8.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 1.0, {{0, 0.9, 1.0}}});
    const auto result = BestResponsePolicy().allocate(market);
    EXPECT_NEAR(result.outcome.allocation[0][0], 4.0, 0.05);
    EXPECT_NEAR(result.outcome.allocation[1][0], 4.0, 0.05);
}

/** A seeded market of @p users users, each with 1-3 jobs on distinct
 *  servers, plus one anchor user per server so no server is idle. */
core::FisherMarket
seededMarket(std::uint64_t seed, int users, int servers)
{
    Rng rng(seed);
    core::FisherMarket market(std::vector<double>(
        static_cast<std::size_t>(servers), 12.0));
    for (int i = 0; i < users; ++i) {
        core::MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.5, 4.0);
        const int first = static_cast<int>(rng.uniformInt(0, servers - 1));
        const int jobs = static_cast<int>(rng.uniformInt(1, 3));
        for (int k = 0; k < jobs; ++k) {
            user.jobs.push_back(
                {static_cast<std::size_t>((first + k) % servers),
                 rng.uniform(0.3, 0.99), rng.uniform(0.5, 2.0)});
        }
        market.addUser(std::move(user));
    }
    for (int j = 0; j < servers; ++j) {
        market.addUser({"anchor" + std::to_string(j), 1.0,
                        {{static_cast<std::size_t>(j), 0.8, 1.0}}});
    }
    return market;
}

TEST(BestResponse, NashOutcomeMatchesPinnedBytes)
{
    // CRC-32 of the Nash bids, prices, allocation and rounded cores,
    // recorded from an earlier build: the loop's tolerance, round cap
    // and interior-point settings are constants, and these pins hold
    // them (and the solver's bytes) in place.
    const struct
    {
        std::uint64_t seed;
        int users;
        int servers;
        std::uint32_t crc;
    } cases[] = {{11, 6, 3, 0x2f1b98a8u},
                 {23, 9, 4, 0xa72dc4f9u},
                 {47, 12, 5, 0xadfd8cceu}};
    for (const auto &c : cases) {
        const auto market = seededMarket(c.seed, c.users, c.servers);
        const auto result = BestResponsePolicy().allocate(market);
        Crc32 digest;
        digest.updateU64(static_cast<std::uint64_t>(
            result.outcome.iterations));
        digest.updateU32(result.outcome.converged ? 1 : 0);
        for (double p : result.outcome.prices)
            digest.updateF64(p);
        for (std::size_t i = 0; i < market.userCount(); ++i) {
            for (std::size_t k = 0; k < result.cores[i].size(); ++k) {
                digest.updateF64(result.outcome.bids[i][k]);
                digest.updateF64(result.outcome.allocation[i][k]);
                digest.updateU32(
                    static_cast<std::uint32_t>(result.cores[i][k]));
            }
        }
        EXPECT_EQ(digest.value(), c.crc)
            << "seed " << c.seed << ": crc 0x" << std::hex
            << digest.value();
    }
}

TEST(BestResponse, PolicyNameIsBR)
{
    EXPECT_EQ(BestResponsePolicy().name(), "BR");
}

} // namespace
} // namespace amdahl::alloc
