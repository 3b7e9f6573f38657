/**
 * @file
 * Unit tests for job placement policies.
 */

#include <gtest/gtest.h>

#include "alloc/placement.hh"
#include "common/logging.hh"

namespace amdahl::alloc {
namespace {

TEST(Placement, RuleNames)
{
    EXPECT_EQ(toString(PlacementRule::RoundRobin), "round-robin");
    EXPECT_EQ(toString(PlacementRule::LeastLoaded), "least-loaded");
    EXPECT_EQ(toString(PlacementRule::PriceAware), "price-aware");
}

TEST(Placement, RoundRobinCycles)
{
    JobPlacer placer(PlacementRule::RoundRobin, 3);
    EXPECT_EQ(placer.place(), 0u);
    EXPECT_EQ(placer.place(), 1u);
    EXPECT_EQ(placer.place(), 2u);
    EXPECT_EQ(placer.place(), 0u);
}

TEST(Placement, LeastLoadedPicksEmptiest)
{
    JobPlacer placer(PlacementRule::LeastLoaded, 3);
    EXPECT_EQ(placer.place(), 0u); // loads: 1,0,0
    EXPECT_EQ(placer.place(), 1u); // loads: 1,1,0
    EXPECT_EQ(placer.place(), 2u); // loads: 1,1,1
    placer.jobFinished(1);
    EXPECT_EQ(placer.place(), 1u);
}

TEST(Placement, LeastLoadedTiesBreakLow)
{
    JobPlacer placer(PlacementRule::LeastLoaded, 2);
    EXPECT_EQ(placer.place(), 0u);
    placer.jobFinished(0);
    EXPECT_EQ(placer.place(), 0u);
}

TEST(Placement, PriceAwarePicksCheapest)
{
    JobPlacer placer(PlacementRule::PriceAware, 3);
    placer.updatePrices({0.5, 0.1, 0.3});
    EXPECT_EQ(placer.place(), 1u);
    placer.updatePrices({0.05, 0.1, 0.3});
    EXPECT_EQ(placer.place(), 0u);
}

TEST(Placement, PriceAwareDefaultsToFirstWhenUnpriced)
{
    JobPlacer placer(PlacementRule::PriceAware, 3);
    EXPECT_EQ(placer.place(), 0u); // all prices 0: lowest index wins
}

TEST(Placement, LoadTracking)
{
    JobPlacer placer(PlacementRule::RoundRobin, 2);
    placer.place();
    placer.place();
    placer.place();
    EXPECT_EQ(placer.state().loads, (std::vector<int>{2, 1}));
    placer.jobFinished(0);
    EXPECT_EQ(placer.state().loads, (std::vector<int>{1, 1}));
}

TEST(Placement, Validation)
{
    EXPECT_THROW(JobPlacer(PlacementRule::RoundRobin, 0), FatalError);
    JobPlacer placer(PlacementRule::RoundRobin, 2);
    EXPECT_THROW(placer.jobFinished(2), FatalError);
    EXPECT_THROW(placer.updatePrices({0.1}), FatalError);
    EXPECT_THROW(placer.jobFinished(0), PanicError); // none placed

    // A saved state must size every vector to the servers and keep the
    // round-robin cursor inside them.
    EXPECT_THROW(JobPlacer(PlacementRule::RoundRobin, JobPlacerState{}),
                 FatalError);
    JobPlacerState bad = placer.state();
    bad.nextRoundRobin = 2;
    EXPECT_THROW(JobPlacer(PlacementRule::RoundRobin, bad), FatalError);
    bad = placer.state();
    bad.prices.pop_back();
    EXPECT_THROW(JobPlacer(PlacementRule::RoundRobin, bad), FatalError);
}

TEST(Placement, ResumesFromItsState)
{
    // A placer built from another's state() continues its sequence:
    // the round-robin cursor, the dead server and the price inflation
    // all carry over.
    for (PlacementRule rule : {PlacementRule::RoundRobin,
                               PlacementRule::LeastLoaded,
                               PlacementRule::PriceAware}) {
        JobPlacer original(rule, 4);
        original.updatePrices({0.4, 0.1, 0.2, 0.3});
        original.setServerLive(2, false);
        original.place();
        original.place();
        JobPlacer resumed(rule, original.state());
        for (int k = 0; k < 6; ++k)
            EXPECT_EQ(resumed.place(), original.place())
                << toString(rule);
    }
}

} // namespace
} // namespace amdahl::alloc
