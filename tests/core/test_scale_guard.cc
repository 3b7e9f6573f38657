/**
 * @file
 * Scale guard for the passes outside the bidding loop.
 *
 * An outcome built directly, with no solve, for 10^5 servers and
 * 2 x 10^5 jobs. Rounding, the certificate and the proportional-share
 * policy must each be linear in jobs: a per-server scan of every
 * user's jobs would make ~2 x 10^10 job visits and cannot finish
 * inside the 60 s ctest timeout this test runs under, while the
 * linear passes take well under a second, sanitizers included.
 */

#include <gtest/gtest.h>

#include <vector>

#include "alloc/proportional_share.hh"
#include "core/market.hh"
#include "core/rounding.hh"

namespace amdahl::core {
namespace {

constexpr std::size_t kServers = 100'000;

/**
 * User i runs one job on server i and one on server i + 1 (mod m);
 * every server holds 2 cores, split 0.75 / 1.25 between its two jobs.
 */
FisherMarket
ringMarket()
{
    FisherMarket market(std::vector<double>(kServers, 2.0));
    for (std::size_t i = 0; i < kServers; ++i) {
        market.addUser({"", 2.0,
                        {{i, 0.9, 1.0}, {(i + 1) % kServers, 0.8, 1.0}}});
    }
    return market;
}

MarketOutcome
ringOutcome()
{
    MarketOutcome outcome;
    outcome.prices.assign(kServers, 1.0);
    outcome.allocation.assign(kServers, {0.75, 1.25});
    outcome.bids = outcome.allocation;
    return outcome;
}

TEST(ScaleGuard, RoundingAndCertificateAreLinear)
{
    const auto market = ringMarket();
    const auto outcome = ringOutcome();

    const auto rounded = roundOutcome(market, outcome);
    std::vector<int> load(kServers, 0);
    for (std::size_t i = 0; i < kServers; ++i) {
        load[i] += rounded[i][0];
        load[(i + 1) % kServers] += rounded[i][1];
    }
    for (std::size_t j = 0; j < kServers; ++j)
        ASSERT_EQ(load[j], 2) << "server " << j;

    const auto check = verifyEquilibrium(market, outcome);
    EXPECT_EQ(check.maxClearingResidual, 0.0);
    EXPECT_EQ(check.maxBudgetResidual, 0.0);
}

TEST(ScaleGuard, ProportionalShareIsLinear)
{
    const auto market = ringMarket();
    const auto result = alloc::ProportionalShare().allocate(market);
    for (std::size_t i = 0; i < kServers; ++i) {
        EXPECT_EQ(result.outcome.allocation[i][0], 1.0);
        EXPECT_EQ(result.cores[i][0] + result.cores[i][1], 2);
    }
}

} // namespace
} // namespace amdahl::core
