/**
 * @file
 * Property-based tests of the market mechanism over randomized
 * instances (parameterized sweeps).
 *
 * For every generated market, the Amdahl Bidding equilibrium must
 * satisfy: market clearing, budget exhaustion, per-user optimality
 * (verified against the independent water-filling solver), entitlement
 * dominance, Pareto-style no-free-improvement via the KKT conditions,
 * and capacity-preserving rounding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.hh"
#include "core/amdahl.hh"
#include "core/bidding.hh"
#include "core/rounding.hh"

namespace amdahl::core {
namespace {

struct MarketCase
{
    std::uint64_t seed;
    int users;
    int servers;
    int capacity;
};

void
PrintTo(const MarketCase &c, std::ostream *os)
{
    *os << "seed" << c.seed << "_u" << c.users << "_s" << c.servers
        << "_c" << c.capacity;
}

FisherMarket
randomMarket(const MarketCase &c)
{
    Rng rng(c.seed);
    FisherMarket market(std::vector<double>(
        c.servers, static_cast<double>(c.capacity)));
    for (int i = 0; i < c.users; ++i) {
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = static_cast<double>(rng.uniformInt(1, 5));
        const int jobs = static_cast<int>(rng.uniformInt(1, 4));
        for (int k = 0; k < jobs; ++k) {
            JobSpec job;
            job.server = static_cast<std::size_t>(
                rng.uniformInt(0, c.servers - 1));
            job.parallelFraction = rng.uniform(0.5, 0.995);
            job.weight = rng.uniform(0.5, 2.0);
            user.jobs.push_back(job);
        }
        market.addUser(std::move(user));
    }
    // Guarantee every server hosts at least one job.
    for (int j = 0; j < c.servers; ++j) {
        MarketUser anchor;
        anchor.name = "anchor" + std::to_string(j);
        anchor.budget = 1.0;
        anchor.jobs.push_back(
            {static_cast<std::size_t>(j), rng.uniform(0.6, 0.99), 1.0});
        market.addUser(std::move(anchor));
    }
    return market;
}

class MarketProperty : public ::testing::TestWithParam<MarketCase>
{
  protected:
    void
    SetUp() override
    {
        market.emplace(randomMarket(GetParam()));
        BiddingOptions opts;
        opts.priceTolerance = 1e-8;
        opts.maxIterations = 50000;
        result = solveAmdahlBidding(*market, opts);
        ASSERT_TRUE(result.converged);
    }

    std::optional<FisherMarket> market;
    BiddingResult result;
};

TEST_P(MarketProperty, MarketClears)
{
    const auto loads = result.serverLoads(*market);
    for (std::size_t j = 0; j < market->serverCount(); ++j) {
        EXPECT_NEAR(loads[j], market->capacity(j),
                    1e-5 * market->capacity(j));
    }
}

TEST_P(MarketProperty, BudgetsExhausted)
{
    for (std::size_t i = 0; i < market->userCount(); ++i) {
        double spent = 0.0;
        for (double b : result.bids[i])
            spent += b;
        EXPECT_NEAR(spent, market->user(i).budget, 1e-9);
    }
}

TEST_P(MarketProperty, AllocationsOptimalAtPrices)
{
    const auto check = verifyEquilibrium(*market, result);
    EXPECT_LT(check.maxOptimalityGap, 1e-3);
}

TEST_P(MarketProperty, EntitlementDominance)
{
    for (std::size_t i = 0; i < market->userCount(); ++i) {
        const auto u = market->utilityOf(i);
        const auto &jobs = market->user(i).jobs;
        // Each server's entitlement is split across the user's jobs on
        // that server (a user bidding twice on one server is still
        // entitled to one share of it).
        std::vector<double> ent(jobs.size());
        for (std::size_t k = 0; k < ent.size(); ++k) {
            std::size_t colocated = 0;
            for (const auto &other : jobs)
                colocated += other.server == jobs[k].server;
            ent[k] = market->entitledCoresOnServer(i, jobs[k].server) /
                     static_cast<double>(colocated);
        }
        EXPECT_GE(u.value(result.allocation[i]),
                  u.value(ent) - 1e-5);
    }
}

TEST_P(MarketProperty, PricesSumToBudgetIdentity)
{
    // Eq. 6: sum_j C_j p_j == B.
    double lhs = 0.0;
    for (std::size_t j = 0; j < market->serverCount(); ++j)
        lhs += market->capacity(j) * result.prices[j];
    EXPECT_NEAR(lhs, market->totalBudget(),
                1e-9 * market->totalBudget());
}

TEST_P(MarketProperty, KktRatioHoldsForInteriorBids)
{
    // For any two jobs of a user with non-negligible bids:
    // b_j^2 / b_k^2 == (w f s^2 p)_j / (w f s^2 p)_k.
    for (std::size_t i = 0; i < market->userCount(); ++i) {
        const auto &jobs = market->user(i).jobs;
        for (std::size_t a = 0; a < jobs.size(); ++a) {
            for (std::size_t b = a + 1; b < jobs.size(); ++b) {
                const double ba = result.bids[i][a];
                const double bb = result.bids[i][b];
                // Near-corner bids converge to the KKT ratio last;
                // only interior bids are checked tightly.
                if (ba < 1e-2 || bb < 1e-2)
                    continue;
                auto term = [&](std::size_t k) {
                    const double s = amdahlSpeedup(
                        jobs[k].parallelFraction,
                        result.allocation[i][k]);
                    return jobs[k].weight * jobs[k].parallelFraction *
                           s * s * result.prices[jobs[k].server];
                };
                const double lhs = (ba * ba) / (bb * bb);
                const double rhs = term(a) / term(b);
                EXPECT_NEAR(lhs, rhs, 1e-3 * rhs);
            }
        }
    }
}

TEST_P(MarketProperty, RoundingPreservesCapacityAndProximity)
{
    const auto rounded = roundOutcome(*market, result);
    std::vector<int> load(market->serverCount(), 0);
    for (std::size_t i = 0; i < market->userCount(); ++i) {
        const auto &jobs = market->user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            load[jobs[k].server] += rounded[i][k];
            EXPECT_LT(std::abs(rounded[i][k] -
                               result.allocation[i][k]),
                      1.0 + 1e-6);
        }
    }
    for (std::size_t j = 0; j < market->serverCount(); ++j) {
        EXPECT_EQ(load[j], static_cast<int>(
                               std::llround(market->capacity(j))));
    }
}

TEST_P(MarketProperty, PositivePrices)
{
    for (double p : result.prices)
        EXPECT_GT(p, 0.0);
}

TEST_P(MarketProperty, ParetoEfficiencySpotCheck)
{
    // The first welfare theorem: no feasible allocation makes every
    // user at least as well off and someone strictly better. (Note
    // the equilibrium does NOT maximize the Eisenberg-Gale objective
    // here — Amdahl utility is not degree-1 homogeneous, so EG gives
    // the *proportional fairness* point instead; see THEORY.md 4a.)
    std::vector<double> equilibrium_utilities(market->userCount());
    for (std::size_t i = 0; i < market->userCount(); ++i) {
        equilibrium_utilities[i] =
            market->utilityOf(i).value(result.allocation[i]);
    }

    Rng rng(GetParam().seed ^ 0xE15EULL);
    for (int trial = 0; trial < 30; ++trial) {
        // Random feasible allocation: random proportions per server,
        // or a small perturbation of the equilibrium (perturbations
        // are the dangerous direction for a near-optimal point).
        JobMatrix candidate(market->userCount());
        for (std::size_t i = 0; i < market->userCount(); ++i)
            candidate[i].assign(market->user(i).jobs.size(), 0.0);
        const bool perturb = trial % 2 == 1;
        for (std::size_t j = 0; j < market->serverCount(); ++j) {
            std::vector<std::pair<std::size_t, std::size_t>> located;
            for (std::size_t i = 0; i < market->userCount(); ++i) {
                const auto &jobs = market->user(i).jobs;
                for (std::size_t k = 0; k < jobs.size(); ++k) {
                    if (jobs[k].server == j)
                        located.emplace_back(i, k);
                }
            }
            std::vector<double> weights(located.size());
            double total = 0.0;
            for (std::size_t k = 0; k < located.size(); ++k) {
                const auto &[i, kk] = located[k];
                weights[k] =
                    perturb ? std::max(1e-6,
                                       result.allocation[i][kk] *
                                           rng.uniform(0.8, 1.2))
                            : rng.uniform(0.01, 1.0);
                total += weights[k];
            }
            for (std::size_t k = 0; k < located.size(); ++k) {
                candidate[located[k].first][located[k].second] =
                    market->capacity(j) * weights[k] / total;
            }
        }

        bool weakly_better_for_all = true;
        bool strictly_better_for_one = false;
        for (std::size_t i = 0; i < market->userCount(); ++i) {
            const double u =
                market->utilityOf(i).value(candidate[i]);
            if (u < equilibrium_utilities[i] - 1e-9)
                weakly_better_for_all = false;
            if (u > equilibrium_utilities[i] + 1e-6)
                strictly_better_for_one = true;
        }
        EXPECT_FALSE(weakly_better_for_all && strictly_better_for_one)
            << "trial " << trial << " Pareto-dominates the equilibrium";
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomMarkets, MarketProperty,
    ::testing::Values(MarketCase{1, 3, 2, 12}, MarketCase{2, 5, 3, 24},
                      MarketCase{3, 8, 4, 12}, MarketCase{4, 12, 3, 24},
                      MarketCase{5, 2, 2, 8}, MarketCase{6, 20, 5, 24},
                      MarketCase{7, 6, 6, 16}, MarketCase{8, 10, 2, 48},
                      MarketCase{9, 4, 4, 12},
                      MarketCase{10, 16, 8, 24}),
    ::testing::PrintToStringParamName());

} // namespace
} // namespace amdahl::core
