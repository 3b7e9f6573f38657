/**
 * @file
 * Unit tests for the Amdahl Bidding procedure (Section V-D/E).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/amdahl.hh"
#include "core/bidding.hh"
#include "obs/trace.hh"

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

TEST(Bidding, ReproducesPaperSectionVExample)
{
    // Paper Section V-C: equilibrium prices p = (0.100, 0.099),
    // Alice x_A = (1.34, 8.68), Bob x_B = (8.66, 1.32).
    BiddingOptions opts;
    opts.priceTolerance = 1e-10;
    const auto r = solveAmdahlBidding(aliceBobMarket(), opts);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.prices[0], 0.100, 0.001);
    EXPECT_NEAR(r.prices[1], 0.099, 0.001);
    EXPECT_NEAR(r.allocation[0][0], 1.34, 0.01);
    EXPECT_NEAR(r.allocation[0][1], 8.68, 0.01);
    EXPECT_NEAR(r.allocation[1][0], 8.66, 0.01);
    EXPECT_NEAR(r.allocation[1][1], 1.32, 0.01);
}

TEST(Bidding, MoreParallelJobDrawsMoreCores)
{
    // "She requests more processors on server D because her bodytrack
    // computation has more parallelism."
    const auto r = solveAmdahlBidding(aliceBobMarket());
    EXPECT_GT(r.allocation[0][1], r.allocation[0][0]); // Alice: D > C.
    EXPECT_GT(r.allocation[1][0], r.allocation[1][1]); // Bob: C > D.
}

TEST(Bidding, MarketClearsEveryServer)
{
    const auto market = aliceBobMarket();
    const auto r = solveAmdahlBidding(market);
    const auto loads = r.serverLoads(market);
    for (std::size_t j = 0; j < market.serverCount(); ++j)
        EXPECT_NEAR(loads[j], market.capacity(j), 1e-6);
}

TEST(Bidding, BudgetsAreExhausted)
{
    const auto market = aliceBobMarket();
    const auto r = solveAmdahlBidding(market);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        double spent = 0.0;
        for (double b : r.bids[i])
            spent += b;
        EXPECT_NEAR(spent, market.user(i).budget, 1e-9);
    }
}

TEST(Bidding, FixedPointSatisfiesPaperEquationNine)
{
    // b_ij^2 / b_ik^2 == f_ij p_j u_ij^2 / (f_ik p_k u_ik^2) with
    // u_ij = w_ij s_ij(x_ij) (unit weights here).
    BiddingOptions opts;
    opts.priceTolerance = 1e-12;
    const auto market = aliceBobMarket();
    const auto r = solveAmdahlBidding(market, opts);
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &jobs = market.user(i).jobs;
        const double lhs =
            (r.bids[i][0] * r.bids[i][0]) / (r.bids[i][1] * r.bids[i][1]);
        const double u0 =
            amdahlSpeedup(jobs[0].parallelFraction, r.allocation[i][0]);
        const double u1 =
            amdahlSpeedup(jobs[1].parallelFraction, r.allocation[i][1]);
        const double rhs =
            (jobs[0].parallelFraction * r.prices[0] * u0 * u0) /
            (jobs[1].parallelFraction * r.prices[1] * u1 * u1);
        EXPECT_NEAR(lhs, rhs, 1e-6 * rhs);
    }
}

TEST(Bidding, EntitlementDominance)
{
    // u_i(x*) >= u_i(x_ent): users do no worse than their entitlement
    // allocation (the paper's fairness theorem).
    const auto market = aliceBobMarket();
    const auto r = solveAmdahlBidding(market);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto u = market.utilityOf(i);
        std::vector<double> entitled(market.user(i).jobs.size());
        for (std::size_t k = 0; k < entitled.size(); ++k) {
            entitled[k] = market.entitledCoresOnServer(
                i, market.user(i).jobs[k].server);
        }
        EXPECT_GE(u.value(r.allocation[i]), u.value(entitled) - 1e-9);
    }
}

TEST(Bidding, SymmetricUsersGetSymmetricAllocations)
{
    FisherMarket market({8.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"b", 1.0, {{0, 0.9, 1.0}}});
    const auto r = solveAmdahlBidding(market);
    EXPECT_NEAR(r.allocation[0][0], 4.0, 1e-6);
    EXPECT_NEAR(r.allocation[1][0], 4.0, 1e-6);
}

TEST(Bidding, BudgetsScaleAllocations)
{
    FisherMarket market({9.0});
    market.addUser({"small", 1.0, {{0, 0.9, 1.0}}});
    market.addUser({"big", 2.0, {{0, 0.9, 1.0}}});
    const auto r = solveAmdahlBidding(market);
    // Single server, identical jobs: allocations proportional to
    // budgets.
    EXPECT_NEAR(r.allocation[1][0], 2.0 * r.allocation[0][0], 1e-6);
}

TEST(Bidding, SingleUserTakesEverything)
{
    FisherMarket market({6.0, 12.0});
    market.addUser({"solo", 3.0, {{0, 0.8, 1.0}, {1, 0.95, 1.0}}});
    const auto r = solveAmdahlBidding(market);
    EXPECT_NEAR(r.allocation[0][0], 6.0, 1e-6);
    EXPECT_NEAR(r.allocation[0][1], 12.0, 1e-6);
}

TEST(Bidding, ConvergesWithinTensOfIterations)
{
    // "prices converge, often within ten iterations" — allow slack but
    // catch pathological slowness.
    const auto r = solveAmdahlBidding(aliceBobMarket());
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 100);
}

TEST(Bidding, TracedLastRoundIsBelowTolerance)
{
    BiddingOptions opts;
    opts.priceTolerance = 1e-10;
    std::ostringstream stream;
    obs::TraceSink sink(stream);
    BiddingResult r;
    {
        obs::TraceGuard guard(sink);
        r = solveAmdahlBidding(aliceBobMarket(), opts);
    }
    ASSERT_TRUE(r.converged);
    // One bidding_iter event per round; the last one carries the
    // price change that stopped the solve.
    std::vector<JsonObject> iters;
    std::istringstream lines(stream.str());
    for (std::string line; std::getline(lines, line);) {
        JsonObject event = parseJsonObject(line).take();
        const std::string *ev = event.get<std::string>("ev");
        if (ev != nullptr && *ev == "bidding_iter")
            iters.push_back(std::move(event));
    }
    ASSERT_EQ(iters.size(), static_cast<std::size_t>(r.iterations));
    const auto *iter = iters.back().get<std::uint64_t>("iter");
    const auto *delta = iters.back().get<double>("max_delta");
    ASSERT_NE(iter, nullptr);
    ASSERT_NE(delta, nullptr);
    EXPECT_EQ(*iter, static_cast<std::uint64_t>(r.iterations));
    EXPECT_LT(*delta, opts.priceTolerance);
}

TEST(Bidding, DampingStillConverges)
{
    BiddingOptions opts;
    opts.damping = 0.5;
    const auto r = solveAmdahlBidding(aliceBobMarket(), opts);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.prices[0], 0.100, 0.002);
}

TEST(Bidding, UpdateUserBidsNormalizesToBudget)
{
    MarketUser user{"u", 2.0, {{0, 0.9, 1.0}, {1, 0.7, 1.0}}};
    std::vector<double> bids = {1.0, 1.0};
    updateUserBids(user, {0.1, 0.2}, bids);
    EXPECT_NEAR(bids[0] + bids[1], 2.0, 1e-12);
    EXPECT_GT(bids[0], 0.0);
    EXPECT_GT(bids[1], 0.0);
}

TEST(Bidding, UpdateUserBidsFallsBackForSerialJobs)
{
    // All-serial user: propensities vanish; bids fall back to an even
    // split.
    MarketUser user{"serial", 3.0, {{0, 0.0, 1.0}, {1, 0.0, 1.0}}};
    std::vector<double> bids = {1.5, 1.5};
    updateUserBids(user, {0.1, 0.1}, bids);
    EXPECT_DOUBLE_EQ(bids[0], 1.5);
    EXPECT_DOUBLE_EQ(bids[1], 1.5);
}

TEST(Bidding, ValidatesOptions)
{
    const auto market = aliceBobMarket();
    BiddingOptions bad;
    bad.priceTolerance = 0.0;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = BiddingOptions{};
    bad.maxIterations = 0;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = BiddingOptions{};
    bad.damping = 0.0;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = BiddingOptions{};
    bad.damping = 1.5;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
}

TEST(Bidding, ValidationRejectsNaN)
{
    // Range checks written as `x <= 0` let NaN through; every double
    // option must reject it (and the tolerance must also be finite).
    const auto market = aliceBobMarket();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    BiddingOptions bad;
    bad.priceTolerance = nan;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = BiddingOptions{};
    bad.priceTolerance = std::numeric_limits<double>::infinity();
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = BiddingOptions{};
    bad.damping = nan;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = BiddingOptions{};
    bad.transport.lossRate = nan;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
}

TEST(Bidding, ReportsNonConvergenceHonestly)
{
    BiddingOptions opts;
    opts.maxIterations = 1;
    opts.priceTolerance = 1e-15;
    const auto r = solveAmdahlBidding(aliceBobMarket(), opts);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.iterations, 1);
}

TEST(Bidding, WarmStartConvergesFaster)
{
    // Solve once, perturb nothing, re-solve from the equilibrium
    // bids: convergence should be near-immediate versus cold start.
    const auto market = aliceBobMarket();
    BiddingOptions cold;
    cold.priceTolerance = 1e-9;
    const auto first = solveAmdahlBidding(market, cold);

    BiddingOptions warm = cold;
    warm.initialBids = first.bids;
    const auto second = solveAmdahlBidding(market, warm);
    EXPECT_TRUE(second.converged);
    EXPECT_LT(second.iterations, first.iterations / 2);
    EXPECT_NEAR(second.prices[0], first.prices[0], 1e-6);
}

TEST(Bidding, WarmStartRescalesToBudget)
{
    // Warm-start bids are renormalized per user, so stale bids from a
    // different budget still exhaust the current one.
    const auto market = aliceBobMarket();
    BiddingOptions warm;
    warm.maxIterations = 1;
    warm.priceTolerance = 1e-15;
    warm.initialBids = {{5.0, 5.0}, {0.2, 0.2}};
    const auto r = solveAmdahlBidding(market, warm);
    for (std::size_t i = 0; i < 2; ++i) {
        double spent = 0.0;
        for (double b : r.bids[i])
            spent += b;
        EXPECT_NEAR(spent, market.user(i).budget, 1e-9);
    }
}

TEST(Bidding, WarmStartFallsBackOnGarbage)
{
    const auto market = aliceBobMarket();
    BiddingOptions warm;
    warm.initialBids = {{0.0, 0.0}, {-1.0, 2.0}};
    const auto r = solveAmdahlBidding(market, warm);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.prices[0], 0.100, 0.002);
}

TEST(Bidding, WarmStartShapeChecked)
{
    const auto market = aliceBobMarket();
    BiddingOptions warm;
    warm.initialBids = {{1.0, 1.0}}; // wrong user count
    EXPECT_THROW(solveAmdahlBidding(market, warm), FatalError);
    warm.initialBids = {{1.0}, {1.0, 1.0}}; // wrong job count
    EXPECT_THROW(solveAmdahlBidding(market, warm), FatalError);
}

TEST(Bidding, WarmStartFallsBackPerRow)
{
    // One garbage row falls back to the even split without disturbing
    // the other user's (valid, renormalized) seed. Near-zero damping
    // keeps the first iteration's bids close to the seed itself.
    const auto market = aliceBobMarket();
    BiddingOptions warm;
    warm.maxIterations = 1;
    warm.priceTolerance = 1e-15;
    warm.damping = 1e-9;
    warm.initialBids = {{-3.0, 0.0}, {6.0, 2.0}};
    const auto r = solveAmdahlBidding(market, warm);
    EXPECT_NEAR(r.bids[0][0], 0.5, 1e-6);  // even split of budget 1
    EXPECT_NEAR(r.bids[0][1], 0.5, 1e-6);
    EXPECT_NEAR(r.bids[1][0], 0.75, 1e-6); // 6:2 rescaled to budget 1
    EXPECT_NEAR(r.bids[1][1], 0.25, 1e-6);
}

TEST(Bidding, WarmStartFallsBackOnNonFiniteRow)
{
    const auto market = aliceBobMarket();
    BiddingOptions warm;
    warm.initialBids = {{std::nan(""), 1.0}, {1.0, 1.0}};
    const auto r = solveAmdahlBidding(market, warm);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.prices[0], 0.100, 0.002);
}

TEST(Bidding, SoundTransportMatchesDefault)
{
    // lossRate 0 must leave the procedure bit-identical, whatever the
    // seed says.
    const auto market = aliceBobMarket();
    BiddingOptions lossless;
    lossless.transport.lossRate = 0.0;
    lossless.transport.seed = 0xdeadbeef;
    const auto a = solveAmdahlBidding(market);
    const auto b = solveAmdahlBidding(market, lossless);
    EXPECT_EQ(a.iterations, b.iterations);
    for (std::size_t j = 0; j < market.serverCount(); ++j)
        EXPECT_DOUBLE_EQ(a.prices[j], b.prices[j]);
}

TEST(Bidding, LossyTransportIsDeterministicGivenSeed)
{
    const auto market = aliceBobMarket();
    BiddingOptions lossy;
    lossy.transport.lossRate = 0.3;
    lossy.transport.seed = 42;
    const auto a = solveAmdahlBidding(market, lossy);
    const auto b = solveAmdahlBidding(market, lossy);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    for (std::size_t j = 0; j < market.serverCount(); ++j)
        EXPECT_DOUBLE_EQ(a.prices[j], b.prices[j]);
}

TEST(Bidding, LossyTransportStillReachesTheEquilibrium)
{
    // Lost updates delay convergence but cannot move the fixed point:
    // the same equilibrium prices as the sound run, more slowly.
    const auto market = aliceBobMarket();
    BiddingOptions lossy;
    lossy.priceTolerance = 1e-9;
    lossy.transport.lossRate = 0.4;
    lossy.transport.seed = 7;
    const auto clean = solveAmdahlBidding(market);
    const auto noisy = solveAmdahlBidding(market, lossy);
    ASSERT_TRUE(noisy.converged);
    EXPECT_GT(noisy.iterations, clean.iterations);
    for (std::size_t j = 0; j < market.serverCount(); ++j)
        EXPECT_NEAR(noisy.prices[j], clean.prices[j], 1e-5);
}

TEST(Bidding, TotalMessageLossNeverConverges)
{
    // With every update lost, prices never move — but a round with
    // losses must not be declared converged.
    const auto market = aliceBobMarket();
    BiddingOptions dead;
    dead.maxIterations = 50;
    dead.transport.lossRate = 1.0;
    dead.transport.seed = 3;
    const auto r = solveAmdahlBidding(market, dead);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.iterations, 50);
}

TEST(Bidding, ValidatesTransportLossRate)
{
    const auto market = aliceBobMarket();
    BiddingOptions bad;
    bad.transport.lossRate = -0.1;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad.transport.lossRate = 1.5;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
}

TEST(Bidding, UserWithJobsOnSameServer)
{
    // Two jobs of one user colocated on one server: bids split by
    // parallelizability, allocations still clear the server.
    FisherMarket market({12.0});
    market.addUser({"multi", 1.0, {{0, 0.95, 1.0}, {0, 0.6, 1.0}}});
    market.addUser({"other", 1.0, {{0, 0.8, 1.0}}});
    const auto r = solveAmdahlBidding(market);
    EXPECT_NEAR(r.serverLoads(market)[0], 12.0, 1e-6);
    EXPECT_GT(r.allocation[0][0], r.allocation[0][1]);
}

} // namespace
} // namespace amdahl::core
