/**
 * @file
 * Unit tests for Proportional Sharing, including the paper's
 * Section II-B worked example.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "alloc/proportional_share.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace amdahl::alloc {
namespace {

/** Section II-B: three equal users, three 12-core servers. */
core::FisherMarket
sectionTwoMarket()
{
    core::FisherMarket market({12.0, 12.0, 12.0});
    // User 1 demands (8, 4, 0): jobs on servers A and B only.
    market.addUser({"u1", 1.0, {{0, 0.9, 1.0}, {1, 0.9, 1.0}}});
    // User 2 demands (0, 4, 8).
    market.addUser({"u2", 1.0, {{1, 0.9, 1.0}, {2, 0.9, 1.0}}});
    // User 3 demands (8, 8, 8).
    market.addUser(
        {"u3", 1.0, {{0, 0.9, 1.0}, {1, 0.9, 1.0}, {2, 0.9, 1.0}}});
    return market;
}

TEST(ProportionalShare, ReproducesSectionTwoExample)
{
    // With the paper's demand vectors, the Fair Share Scheduler
    // allocates u1=(6A,4B,0C), u2=(0A,4B,6C), u3=(6A,4B,6C).
    const auto market = sectionTwoMarket();
    const std::vector<std::vector<double>> demands = {
        {8.0, 4.0}, {4.0, 8.0}, {8.0, 8.0, 8.0}};
    const ProportionalShare ps(demands);
    const auto result = ps.allocate(market);

    EXPECT_EQ(result.cores[0], (std::vector<int>{6, 4}));
    EXPECT_EQ(result.cores[1], (std::vector<int>{4, 6}));
    EXPECT_EQ(result.cores[2], (std::vector<int>{6, 4, 6}));

    // Aggregate: 10, 10, 16 — violating datacenter-wide entitlements
    // of 12 each (the paper's motivating observation).
    EXPECT_EQ(result.userCores(0), 10);
    EXPECT_EQ(result.userCores(1), 10);
    EXPECT_EQ(result.userCores(2), 16);
}

TEST(ProportionalShare, UncappedUsersSplitByEntitlement)
{
    core::FisherMarket market({12.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 2.0, {{0, 0.9, 1.0}}});
    const ProportionalShare ps;
    const auto result = ps.allocate(market);
    EXPECT_EQ(result.cores[0][0], 4);
    EXPECT_EQ(result.cores[1][0], 8);
}

TEST(ProportionalShare, AbsentUserShareIsRedistributed)
{
    // "If a user does not compute on a server, her share is reassigned
    // to other users on that server in proportion to entitlements."
    core::FisherMarket market({12.0, 12.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 1.0, {{0, 0.9, 1.0}, {1, 0.9, 1.0}}});
    const ProportionalShare ps;
    const auto result = ps.allocate(market);
    // Server 0 split between a and b; server 1 entirely b's.
    EXPECT_EQ(result.cores[0][0], 6);
    EXPECT_EQ(result.cores[1][0], 6);
    EXPECT_EQ(result.cores[1][1], 12);
}

TEST(ProportionalShare, DemandCapsLeaveCoresIdle)
{
    core::FisherMarket market({12.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 1.0, {{0, 0.9, 1.0}}});
    const ProportionalShare ps(
        std::vector<std::vector<double>>{{2.0}, {3.0}});
    const auto result = ps.allocate(market);
    EXPECT_EQ(result.cores[0][0], 2);
    EXPECT_EQ(result.cores[1][0], 3);
}

TEST(ProportionalShare, CapRedistributionCascades)
{
    // a capped at 1 core; remaining 11 split between b and c (2:1).
    core::FisherMarket market({12.0});
    market.addUser({"a", 5.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 2.0, {{0, 0.9, 1.0}}});
    market.addUser({"c", 1.0, {{0, 0.9, 1.0}}});
    const ProportionalShare ps(
        std::vector<std::vector<double>>{{1.0}, {100.0}, {100.0}});
    const auto result = ps.allocate(market);
    EXPECT_EQ(result.cores[0][0], 1);
    EXPECT_EQ(result.cores[1][0], 7);  // 11 * 2/3 = 7.33 -> 7
    EXPECT_EQ(result.cores[2][0], 4);  // 11 * 1/3 = 3.67 -> 4
}

TEST(ProportionalShare, CappedTotalWithSmallFractionRoundsUp)
{
    // Both users are capped below their fair share, granting 18.0677
    // of 24 cores. Rounding that total to the nearest integer (18)
    // asked Hamilton for fewer cores than it was rounding, which
    // aborted; the target is now the total rounded up.
    core::FisherMarket market({24.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 1.0, {{0, 0.9, 1.0}}});
    const ProportionalShare ps(
        std::vector<std::vector<double>>{{9.0}, {9.0677}});
    const auto result = ps.allocate(market);
    EXPECT_DOUBLE_EQ(result.outcome.allocation[1][0], 9.0677);
    EXPECT_EQ(result.cores[0][0], 9);
    EXPECT_EQ(result.cores[1][0], 10);
}

TEST(ProportionalShare, RandomCappedMarketsRoundWithinCapacity)
{
    // Seeded sweep: random capped markets never abort, every server
    // hands out its granted total rounded up (at most its capacity),
    // and no job loses a core its fractional share already holds.
    Rng rng(0xca9);
    for (int trial = 0; trial < 200; ++trial) {
        const int servers = 1 + static_cast<int>(rng.uniformInt(0, 3));
        std::vector<double> capacities;
        for (int j = 0; j < servers; ++j)
            capacities.push_back(
                static_cast<double>(rng.uniformInt(4, 40)));
        core::FisherMarket market(capacities);
        std::vector<std::vector<double>> caps;
        // At least one user per server: every server must host a job.
        const int users =
            servers + static_cast<int>(rng.uniformInt(0, 6));
        for (int i = 0; i < users; ++i) {
            core::MarketUser user;
            user.name = "u" + std::to_string(i);
            user.budget = rng.uniform(0.5, 2.0);
            std::vector<double> userCaps;
            const int jobs = 1 + static_cast<int>(rng.uniformInt(0, 2));
            for (int k = 0; k < jobs; ++k) {
                const auto server = static_cast<std::size_t>(
                    k == 0 ? i % servers
                           : rng.uniformInt(0, servers - 1));
                user.jobs.push_back({server, 0.9, 1.0});
                userCaps.push_back(rng.uniform(0.0, 12.0));
            }
            market.addUser(std::move(user));
            caps.push_back(std::move(userCaps));
        }
        const ProportionalShare ps(caps);
        const auto result = ps.allocate(market);

        const std::string what = "trial " + std::to_string(trial);
        std::vector<double> granted(capacities.size(), 0.0);
        std::vector<int> cores(capacities.size(), 0);
        for (std::size_t i = 0; i < market.userCount(); ++i) {
            const auto &jobs = market.user(i).jobs;
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                const double x = result.outcome.allocation[i][k];
                EXPECT_GE(result.cores[i][k],
                          static_cast<int>(std::floor(x + 1e-12)))
                    << what;
                granted[jobs[k].server] += x;
                cores[jobs[k].server] += result.cores[i][k];
            }
        }
        for (std::size_t j = 0; j < capacities.size(); ++j) {
            EXPECT_LE(cores[j], static_cast<int>(capacities[j])) << what;
            EXPECT_GE(static_cast<double>(cores[j]), granted[j] - 1e-9)
                << what << " server " << j;
            EXPECT_LT(static_cast<double>(cores[j]), granted[j] + 1.0)
                << what << " server " << j;
        }
    }
}

TEST(ProportionalShare, ServersAreFullyAllocatedWithoutCaps)
{
    const auto market = sectionTwoMarket();
    const ProportionalShare ps;
    const auto result = ps.allocate(market);
    std::vector<int> load(3, 0);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k)
            load[jobs[k].server] += result.cores[i][k];
    }
    for (int l : load)
        EXPECT_EQ(l, 12);
}

TEST(ProportionalShare, MultipleJobsOfOneUserSplitHerShare)
{
    core::FisherMarket market({12.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}, {0, 0.5, 1.0}}});
    market.addUser({"b", 1.0, {{0, 0.9, 1.0}}});
    const ProportionalShare ps;
    const auto result = ps.allocate(market);
    // a's 6-core share split evenly across her two jobs.
    EXPECT_EQ(result.cores[0][0] + result.cores[0][1], 6);
    EXPECT_EQ(result.cores[1][0], 6);
}

TEST(ProportionalShare, FractionalAllocationsRecordedBeforeRounding)
{
    core::FisherMarket market({10.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 2.0, {{0, 0.9, 1.0}}});
    const ProportionalShare ps;
    const auto result = ps.allocate(market);
    EXPECT_NEAR(result.outcome.allocation[0][0], 10.0 / 3.0, 1e-9);
    EXPECT_NEAR(result.outcome.allocation[1][0], 20.0 / 3.0, 1e-9);
    EXPECT_EQ(result.cores[0][0] + result.cores[1][0], 10);
}

TEST(ProportionalShare, ValidatesDemandShape)
{
    const auto market = sectionTwoMarket();
    const ProportionalShare bad_users(
        std::vector<std::vector<double>>{{1.0}});
    EXPECT_THROW(bad_users.allocate(market), FatalError);
    const ProportionalShare bad_jobs(std::vector<std::vector<double>>{
        {1.0}, {1.0, 1.0}, {1.0, 1.0, 1.0}});
    EXPECT_THROW(bad_jobs.allocate(market), FatalError);
}

TEST(ProportionalShare, PolicyNameIsPS)
{
    EXPECT_EQ(ProportionalShare().name(), "PS");
}

} // namespace
} // namespace amdahl::alloc
