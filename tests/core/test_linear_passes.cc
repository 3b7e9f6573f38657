/**
 * @file
 * Oracle tests for the linear passes outside the bidding loop.
 *
 * roundOutcome and verifyEquilibrium visit each job once, through a
 * ServerJobIndex and a single user-major load pass. The reference
 * functions below are the per-server scans they replaced (one scan of
 * every user's jobs per server, O(users x servers)); over seeded
 * random markets the linear passes must reproduce them exactly — the
 * same integers from rounding and the same bits in every certificate
 * field — including users with two jobs on one server and servers
 * that host no job. The certificate must also be identical at every
 * thread count.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/amdahl.hh"
#include "core/bidding.hh"
#include "core/market.hh"
#include "core/market_io.hh"
#include "core/rounding.hh"
#include "exec/parallelism.hh"
#include "solver/water_filling.hh"

namespace amdahl::core {
namespace {

/** Restores the process-wide thread count on scope exit. */
class ThreadGuard
{
  public:
    explicit ThreadGuard(int n) : previous_(exec::setThreadCount(n)) {}
    ~ThreadGuard() { exec::setThreadCount(previous_); }
    ThreadGuard(const ThreadGuard &) = delete;
    ThreadGuard &operator=(const ThreadGuard &) = delete;

  private:
    int previous_;
};

/** The per-server load scan: every user's jobs, once per server. */
double
referenceServerLoad(const FisherMarket &market,
                    const MarketOutcome &outcome, std::size_t j)
{
    double load = 0.0;
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            if (jobs[k].server == j)
                load += outcome.allocation[i][k];
        }
    }
    return load;
}

/** Rounding by a scan of every user's jobs per server. */
std::vector<std::vector<int>>
referenceRoundOutcome(const FisherMarket &market,
                      const MarketOutcome &outcome)
{
    const std::size_t n = market.userCount();
    std::vector<std::vector<int>> integral(n);
    for (std::size_t i = 0; i < n; ++i)
        integral[i].assign(outcome.allocation[i].size(), 0);
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        std::vector<double> shares;
        std::vector<std::pair<std::size_t, std::size_t>> owners;
        for (std::size_t i = 0; i < n; ++i) {
            const auto &jobs = market.user(i).jobs;
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                if (jobs[k].server == j) {
                    shares.push_back(outcome.allocation[i][k]);
                    owners.emplace_back(i, k);
                }
            }
        }
        if (shares.empty())
            continue;
        const auto rounded = hamiltonRound(
            shares, static_cast<int>(std::llround(market.capacity(j))));
        for (std::size_t k = 0; k < owners.size(); ++k)
            integral[owners[k].first][owners[k].second] = rounded[k];
    }
    return integral;
}

/** The serial certificate with a per-server load scan. */
EquilibriumCheck
referenceVerify(const FisherMarket &market, const MarketOutcome &outcome)
{
    EquilibriumCheck check;
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        const double load = referenceServerLoad(market, outcome, j);
        check.maxClearingResidual =
            std::max(check.maxClearingResidual,
                     std::abs(load - market.capacity(j)) /
                         market.capacity(j));
    }
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &user = market.user(i);
        double spent = 0.0;
        for (double b : outcome.bids[i])
            spent += b;
        check.maxBudgetResidual =
            std::max(check.maxBudgetResidual,
                     std::abs(spent - user.budget) / user.budget);
        std::vector<solver::WaterFillItem> items;
        for (const auto &job : user.jobs) {
            items.push_back({job.weight, job.parallelFraction,
                             outcome.prices[job.server]});
        }
        const auto best = solver::waterFill(items, user.budget);
        double actual = 0.0;
        for (std::size_t k = 0; k < user.jobs.size(); ++k) {
            actual += user.jobs[k].weight *
                      amdahlSpeedup(user.jobs[k].parallelFraction,
                                    outcome.allocation[i][k]);
        }
        if (best.utility > 0.0) {
            check.maxOptimalityGap =
                std::max(check.maxOptimalityGap,
                         (best.utility - actual) / best.utility);
        }
    }
    return check;
}

/** Every field compared bit for bit. */
void
expectSameBits(const EquilibriumCheck &a, const EquilibriumCheck &b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.maxClearingResidual),
              std::bit_cast<std::uint64_t>(b.maxClearingResidual));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.maxBudgetResidual),
              std::bit_cast<std::uint64_t>(b.maxBudgetResidual));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.maxOptimalityGap),
              std::bit_cast<std::uint64_t>(b.maxOptimalityGap));
}

/**
 * A seeded random market, written out and loaded back with the
 * duplicate-job check off. About one user in five has two jobs on one
 * server. With @p emptyServer the last server hosts no job.
 */
FisherMarket
randomMarket(std::uint64_t seed, std::size_t users, std::size_t servers,
             bool emptyServer)
{
    Rng rng(seed);
    std::vector<double> capacities(servers);
    for (auto &c : capacities)
        c = static_cast<double>(rng.uniformInt(4, 48));
    FisherMarket built(capacities);
    const auto hosts = static_cast<std::int64_t>(
        emptyServer ? servers - 2 : servers - 1);
    for (std::size_t i = 0; i < users; ++i) {
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.5, 5.0);
        const auto jobs = rng.uniformInt(1, 4);
        for (std::int64_t k = 0; k < jobs; ++k) {
            user.jobs.push_back(
                {static_cast<std::size_t>(rng.uniformInt(0, hosts)),
                 rng.uniform(0.3, 0.99), rng.uniform(0.5, 2.0)});
        }
        if (rng.uniform() < 0.2)
            user.jobs.push_back(user.jobs.front());
        built.addUser(std::move(user));
    }
    // Every hosting server needs a job for the solver.
    MarketUser filler{"filler", 1.0, {}};
    for (std::int64_t j = 0; j <= hosts; ++j)
        filler.jobs.push_back({static_cast<std::size_t>(j), 0.9, 1.0});
    built.addUser(std::move(filler));

    std::ostringstream os;
    writeMarket(os, built);
    MarketParseOptions opts;
    opts.rejectDuplicateServerJobs = false;
    return tryParseMarketString(os.str(), opts).take();
}

/**
 * A synthetic outcome that clears every hosting server exactly (random
 * splits of each capacity), with random prices and bids near cost.
 * With @p ties the splits use a few integer weights, so many jobs on a
 * server share a fractional part and Hamilton's index tie-break (the
 * job order within the server) decides who gets the extra cores.
 */
MarketOutcome
randomOutcome(const FisherMarket &market, std::uint64_t seed,
              bool ties = false)
{
    Rng rng(seed);
    MarketOutcome outcome;
    outcome.prices.resize(market.serverCount());
    for (auto &p : outcome.prices)
        p = rng.uniform(0.05, 2.0);
    std::vector<double> weightSum(market.serverCount(), 0.0);
    outcome.allocation.resize(market.userCount());
    outcome.bids.resize(market.userCount());
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        for (const auto &job : market.user(i).jobs) {
            const double w =
                ties ? static_cast<double>(rng.uniformInt(1, 3))
                     : rng.uniform(0.01, 1.0);
            outcome.allocation[i].push_back(w);
            weightSum[job.server] += w;
        }
    }
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            auto &x = outcome.allocation[i][k];
            x = x / weightSum[jobs[k].server] *
                market.capacity(jobs[k].server);
            outcome.bids[i].push_back(x * outcome.prices[jobs[k].server] *
                                      rng.uniform(0.9, 1.1));
        }
    }
    return outcome;
}

TEST(LinearPasses, MatchTheScansOnRandomOutcomes)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        const bool empty = seed % 2 == 0;
        const auto market = randomMarket(seed, 40 + 50 * seed,
                                         3 + seed % 9, empty);
        if (empty) {
            ASSERT_TRUE(
                ServerJobIndex(market)
                    .jobsOn(market.serverCount() - 1)
                    .empty());
        }
        const auto outcome =
            randomOutcome(market, seed + 1000, seed % 3 == 0);
        EXPECT_EQ(roundOutcome(market, outcome),
                  referenceRoundOutcome(market, outcome));
        expectSameBits(verifyEquilibrium(market, outcome),
                       referenceVerify(market, outcome));
        const auto loads = outcome.serverLoads(market);
        for (std::size_t j = 0; j < market.serverCount(); ++j) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(loads[j]),
                      std::bit_cast<std::uint64_t>(
                          referenceServerLoad(market, outcome, j)));
        }
    }
}

TEST(LinearPasses, MatchTheScansOnSolvedMarkets)
{
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        const auto market = randomMarket(seed, 300, 6, false);
        const auto result = solveAmdahlBidding(market);
        ASSERT_TRUE(result.converged);
        EXPECT_EQ(roundOutcome(market, result),
                  referenceRoundOutcome(market, result));
        expectSameBits(verifyEquilibrium(market, result),
                       referenceVerify(market, result));
    }
}

TEST(LinearPasses, IndexKeepsUserMajorOrderWithinAServer)
{
    FisherMarket market({4.0, 4.0, 4.0});
    market.addUser({"a", 1.0, {{1, 0.9, 1.0}, {0, 0.8, 1.0}, {1, 0.7, 1.0}}});
    market.addUser({"b", 1.0, {{1, 0.9, 1.0}}});
    const ServerJobIndex index(market);
    const auto on1 = index.jobsOn(1);
    ASSERT_EQ(on1.size(), 3u);
    EXPECT_EQ(on1[0], (JobRef{0, 0}));
    EXPECT_EQ(on1[1], (JobRef{0, 2}));
    EXPECT_EQ(on1[2], (JobRef{1, 0}));
    EXPECT_EQ(index.jobsOn(0).size(), 1u);
    EXPECT_TRUE(index.jobsOn(2).empty());
    EXPECT_THROW(index.jobsOn(3), FatalError);
}

TEST(LinearPasses, CertificateIsThreadCountInvariant)
{
    // Enough users for several chunks of the per-user pass.
    const auto market = randomMarket(77, 5000, 8, false);
    const auto outcome = randomOutcome(market, 78);
    EquilibriumCheck serial;
    {
        const ThreadGuard guard(1);
        serial = verifyEquilibrium(market, outcome);
    }
    expectSameBits(serial, referenceVerify(market, outcome));
    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        const ThreadGuard guard(threads);
        expectSameBits(verifyEquilibrium(market, outcome), serial);
    }
}

} // namespace
} // namespace amdahl::core
