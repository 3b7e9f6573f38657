/**
 * @file
 * Unit tests for the Section VI population generator.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "eval/population.hh"

namespace amdahl::eval {
namespace {

PopulationOptions
smallOptions()
{
    PopulationOptions opts;
    opts.users = 50;
    opts.serverMultiplier = 0.5;
    opts.density = 12;
    return opts;
}

TEST(Population, ServerCountFollowsMultiplier)
{
    Rng rng(1);
    const auto pop = generatePopulation(rng, smallOptions());
    EXPECT_EQ(pop.serverCount, 25u);
    EXPECT_EQ(pop.userCount(), 50u);
}

TEST(Population, FractionalMultiplierRoundsUp)
{
    Rng rng(2);
    PopulationOptions opts = smallOptions();
    opts.users = 10;
    opts.serverMultiplier = 0.25;
    const auto pop = generatePopulation(rng, opts);
    EXPECT_EQ(pop.serverCount, 3u); // ceil(2.5)
}

TEST(Population, BudgetsAreIntegerClasses)
{
    Rng rng(3);
    const auto pop = generatePopulation(rng, smallOptions());
    for (double b : pop.budgets) {
        EXPECT_GE(b, 1.0);
        EXPECT_LE(b, 5.0);
        EXPECT_DOUBLE_EQ(b, std::floor(b));
    }
}

TEST(Population, AllBudgetClassesAppear)
{
    Rng rng(4);
    PopulationOptions opts = smallOptions();
    opts.users = 500;
    const auto pop = generatePopulation(rng, opts);
    std::vector<int> seen(6, 0);
    for (std::size_t i = 0; i < pop.userCount(); ++i)
        ++seen[static_cast<std::size_t>(pop.entitlementClass(i))];
    for (int cls = 1; cls <= 5; ++cls)
        EXPECT_GT(seen[static_cast<std::size_t>(cls)], 0) << cls;
}

TEST(Population, EveryUserHasAJob)
{
    Rng rng(5);
    for (int trial = 0; trial < 10; ++trial) {
        const auto pop = generatePopulation(rng, smallOptions());
        for (const auto &jobs : pop.userJobs)
            EXPECT_FALSE(jobs.empty());
    }
}

TEST(Population, EveryServerHostsAJob)
{
    Rng rng(6);
    const auto pop = generatePopulation(rng, smallOptions());
    std::vector<int> jobs_on(pop.serverCount, 0);
    for (const auto &jobs : pop.userJobs)
        for (const auto &job : jobs)
            ++jobs_on[job.server];
    for (int count : jobs_on)
        EXPECT_GE(count, 1);
}

TEST(Population, DensityBoundsMostlyHold)
{
    // Servers host between ceil(d/2) and d jobs; the every-user-runs
    // fix-up can add at most a handful beyond d when all servers are
    // saturated, which cannot happen at these sizes.
    Rng rng(7);
    PopulationOptions opts = smallOptions();
    opts.density = 8;
    const auto pop = generatePopulation(rng, opts);
    std::vector<int> jobs_on(pop.serverCount, 0);
    for (const auto &jobs : pop.userJobs)
        for (const auto &job : jobs)
            ++jobs_on[job.server];
    for (int count : jobs_on)
        EXPECT_LE(count, 8);
}

TEST(Population, WorkloadIndicesInRange)
{
    Rng rng(8);
    PopulationOptions opts = smallOptions();
    opts.workloadCount = 22;
    const auto pop = generatePopulation(rng, opts);
    for (const auto &jobs : pop.userJobs)
        for (const auto &job : jobs)
            EXPECT_LT(job.workloadIndex, 22u);
}

TEST(Population, DeterministicGivenSeed)
{
    Rng a(99), b(99);
    const auto p1 = generatePopulation(a, smallOptions());
    const auto p2 = generatePopulation(b, smallOptions());
    EXPECT_EQ(p1.budgets, p2.budgets);
    ASSERT_EQ(p1.userJobs.size(), p2.userJobs.size());
    for (std::size_t i = 0; i < p1.userJobs.size(); ++i) {
        ASSERT_EQ(p1.userJobs[i].size(), p2.userJobs[i].size());
        for (std::size_t k = 0; k < p1.userJobs[i].size(); ++k) {
            EXPECT_EQ(p1.userJobs[i][k].server,
                      p2.userJobs[i][k].server);
            EXPECT_EQ(p1.userJobs[i][k].workloadIndex,
                      p2.userJobs[i][k].workloadIndex);
        }
    }
}

TEST(Population, JobCountSums)
{
    Rng rng(10);
    const auto pop = generatePopulation(rng, smallOptions());
    std::size_t manual = 0;
    for (const auto &jobs : pop.userJobs)
        manual += jobs.size();
    EXPECT_EQ(pop.jobCount(), manual);
    EXPECT_GE(pop.jobCount(), pop.userCount());
}

TEST(Population, HomogeneousCoresOf)
{
    Rng rng(71);
    const auto pop = generatePopulation(rng, smallOptions());
    for (std::size_t j = 0; j < pop.serverCount; ++j)
        EXPECT_EQ(pop.coresOf(j), 24);
}

TEST(Population, CoresOfBoundsChecked)
{
    Rng rng(74);
    const auto pop = generatePopulation(rng, smallOptions());
    EXPECT_THROW(pop.coresOf(pop.serverCount), FatalError);
}

TEST(Population, ValidatesOptions)
{
    Rng rng(11);
    PopulationOptions bad = smallOptions();
    bad.users = 0;
    EXPECT_THROW(generatePopulation(rng, bad), FatalError);
    bad = smallOptions();
    bad.serverMultiplier = 0.0;
    EXPECT_THROW(generatePopulation(rng, bad), FatalError);
    bad = smallOptions();
    bad.density = 0;
    EXPECT_THROW(generatePopulation(rng, bad), FatalError);
    bad = smallOptions();
    bad.workloadCount = 0;
    EXPECT_THROW(generatePopulation(rng, bad), FatalError);
}

TEST(Population, PaperLadders)
{
    EXPECT_EQ(paperServerMultipliers(),
              (std::vector<double>{0.25, 0.5, 1.0, 2.0, 4.0}));
    EXPECT_EQ(paperDensityLadder(),
              (std::vector<int>{4, 8, 12, 16, 20, 24}));
}

} // namespace
} // namespace amdahl::eval
