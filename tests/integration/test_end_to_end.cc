/**
 * @file
 * End-to-end integration tests: profile -> estimate -> market ->
 * round -> measure, over random populations.
 */

#include <gtest/gtest.h>

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/best_response.hh"
#include "alloc/proportional_share.hh"
#include "core/entitlement.hh"
#include "eval/experiment.hh"
#include "eval/metrics.hh"
#include "sim/workload_library.hh"

namespace amdahl {
namespace {

eval::Population
makePopulation(std::uint64_t seed, int users, int density)
{
    Rng rng(seed);
    eval::PopulationOptions opts;
    opts.users = users;
    opts.serverMultiplier = 0.5;
    opts.density = density;
    opts.workloadCount = sim::workloadLibrary().size();
    return eval::generatePopulation(rng, opts);
}

TEST(EndToEnd, FullPipelineProducesValidAllocation)
{
    const auto pop = makePopulation(11, 24, 10);
    eval::CharacterizationCache cache;
    const auto market =
        eval::buildMarket(pop, cache, eval::FractionSource::Estimated);

    const alloc::AmdahlBiddingPolicy ab;
    const auto result = ab.allocate(market);
    ASSERT_TRUE(result.outcome.converged);

    // Every server's cores fully and exactly allocated.
    std::vector<int> load(pop.serverCount, 0);
    for (std::size_t i = 0; i < pop.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            EXPECT_GE(result.cores[i][k], 0);
            load[jobs[k].server] += result.cores[i][k];
        }
    }
    for (std::size_t j = 0; j < pop.serverCount; ++j)
        EXPECT_EQ(load[j], pop.coresPerServer) << "server " << j;

    // Measured progress is positive and at least entitlement-like.
    eval::ProgressEvaluator evaluator(cache);
    EXPECT_GT(evaluator.systemProgress(pop, result.cores), 1.0);
}

TEST(EndToEnd, EquilibriumVerifiesOnRandomPopulations)
{
    for (std::uint64_t seed : {21u, 22u, 23u}) {
        const auto pop = makePopulation(seed, 18, 8);
        eval::CharacterizationCache cache;
        const auto market = eval::buildMarket(
            pop, cache, eval::FractionSource::Estimated);
        // PRD has a slow geometric tail on instances where a bid
        // decays toward a corner; 1e-7 on prices is far tighter than
        // the 1e-3 equilibrium residual this test verifies.
        core::BiddingOptions opts;
        opts.priceTolerance = 1e-7;
        opts.maxIterations = 50000;
        const auto r = core::solveAmdahlBidding(market, opts);
        ASSERT_TRUE(r.converged) << "seed " << seed;
        const auto check = core::verifyEquilibrium(market, r);
        EXPECT_TRUE(check.pass(1e-3))
            << "seed " << seed << ": clearing "
            << check.maxClearingResidual << ", budget "
            << check.maxBudgetResidual << ", optimality "
            << check.maxOptimalityGap;
    }
}

TEST(EndToEnd, EntitlementDominanceHoldsAcrossPopulation)
{
    const auto pop = makePopulation(31, 30, 12);
    eval::CharacterizationCache cache;
    const auto market =
        eval::buildMarket(pop, cache, eval::FractionSource::Estimated);
    const auto r = core::solveAmdahlBidding(market);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto u = market.utilityOf(i);
        std::vector<double> ent(market.user(i).jobs.size());
        for (std::size_t k = 0; k < ent.size(); ++k) {
            ent[k] = market.entitledCoresOnServer(
                i, market.user(i).jobs[k].server);
        }
        EXPECT_GE(u.value(r.allocation[i]), u.value(ent) - 1e-6)
            << "user " << i;
    }
}

TEST(EndToEnd, AbAndBrConvergeAtHighDensity)
{
    // Section VI-B: as density increases, price-anticipating users
    // become price-taking and BR's Nash approaches AB's equilibrium.
    const auto dense = makePopulation(41, 16, 20);
    eval::CharacterizationCache cache;
    const auto market = eval::buildMarket(
        dense, cache, eval::FractionSource::Estimated);

    const auto ab = alloc::AmdahlBiddingPolicy().allocate(market);
    const auto br = alloc::BestResponsePolicy().allocate(market);

    const auto ab_cores = core::allocatedCoresPerUser(
        market, ab.outcome.allocation);
    const auto br_cores = core::allocatedCoresPerUser(
        market, br.outcome.allocation);
    double total_diff = 0.0, total = 0.0;
    for (std::size_t i = 0; i < ab_cores.size(); ++i) {
        total_diff += std::abs(ab_cores[i] - br_cores[i]);
        total += ab_cores[i];
    }
    // Aggregate per-user allocations differ by under 15%.
    EXPECT_LT(total_diff / total, 0.15);
}

TEST(EndToEnd, MarketBeatsProportionalShareOnMeasuredProgress)
{
    eval::CharacterizationCache cache;
    eval::ProgressEvaluator evaluator(cache);
    double ab_wins = 0, trials = 0;
    for (std::uint64_t seed : {51u, 52u, 53u}) {
        const auto pop = makePopulation(seed, 24, 16);
        const auto market = eval::buildMarket(
            pop, cache, eval::FractionSource::Estimated);
        const auto ab = alloc::AmdahlBiddingPolicy().allocate(market);
        const auto ps = alloc::ProportionalShare().allocate(market);
        const double ab_prog =
            evaluator.systemProgress(pop, ab.cores);
        const double ps_prog =
            evaluator.systemProgress(pop, ps.cores);
        ab_wins += ab_prog > ps_prog;
        trials += 1;
    }
    EXPECT_EQ(ab_wins, trials);
}

TEST(EndToEnd, HeterogeneousClusterClearsEveryServer)
{
    // Mixed-generation cluster: 12- and 24-core servers in turn. The
    // market must clear each server at its own capacity.
    const auto pop = makePopulation(77, 20, 10);
    eval::CharacterizationCache cache;
    const auto uniform =
        eval::buildMarket(pop, cache, eval::FractionSource::Estimated);
    std::vector<double> capacities(pop.serverCount);
    for (std::size_t j = 0; j < capacities.size(); ++j)
        capacities[j] = j % 2 == 0 ? 12.0 : 24.0;
    ASSERT_GE(capacities.size(), 2u);
    core::FisherMarket market(capacities);
    for (std::size_t i = 0; i < uniform.userCount(); ++i)
        market.addUser(uniform.user(i));
    const auto result = alloc::AmdahlBiddingPolicy().allocate(market);

    std::vector<int> load(pop.serverCount, 0);
    for (std::size_t i = 0; i < pop.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k)
            load[jobs[k].server] += result.cores[i][k];
    }
    for (std::size_t j = 0; j < pop.serverCount; ++j)
        EXPECT_EQ(load[j], capacities[j]) << "server " << j;

    // And measured progress is still computable (allocations never
    // exceed the characterization simulator's 24-core server).
    eval::ProgressEvaluator evaluator(cache);
    EXPECT_GT(evaluator.systemProgress(pop, result.cores), 0.0);
}

TEST(EndToEnd, EstimatedFractionsAreGoodEnoughForAllocation)
{
    // Allocations from estimated fractions should be close to those
    // from measured fractions (the estimation pipeline's whole point).
    const auto pop = makePopulation(61, 20, 12);
    eval::CharacterizationCache cache;
    const auto est_market = eval::buildMarket(
        pop, cache, eval::FractionSource::Estimated);
    const auto meas_market = eval::buildMarket(
        pop, cache, eval::FractionSource::Measured);
    const auto est = alloc::AmdahlBiddingPolicy().allocate(est_market);
    const auto meas =
        alloc::AmdahlBiddingPolicy().allocate(meas_market);

    const auto est_cores = core::allocatedCoresPerUser(
        est_market, est.outcome.allocation);
    const auto meas_cores = core::allocatedCoresPerUser(
        meas_market, meas.outcome.allocation);
    for (std::size_t i = 0; i < est_cores.size(); ++i)
        EXPECT_NEAR(est_cores[i], meas_cores[i],
                    0.2 * meas_cores[i] + 1.0);
}

} // namespace
} // namespace amdahl
